# Python residual emitted by repro.backend (PPE compiled backend).
# goal: altsum/1
_k0 = 4
_k1 = 2
_k2 = 0.0
_k3 = 1
_k4 = 3


def _f_altsum(_v_V):
    return _p_add(_p_vref(_v_V, _k0), _p_sub(_p_add(_p_vref(_v_V, _k1), _p_sub(_k2, _p_vref(_v_V, _k3))), _p_vref(_v_V, _k4)))
