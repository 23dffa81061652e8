# Python residual emitted by repro.backend (PPE compiled backend).
# goal: iprod/2
_k0 = 3
_k1 = 2
_k2 = 1


def _f_iprod(_v_A, _v_B):
    return _p_add(_p_mul(_p_vref(_v_A, _k0), _p_vref(_v_B, _k0)), _p_add(_p_mul(_p_vref(_v_A, _k1), _p_vref(_v_B, _k1)), _p_mul(_p_vref(_v_A, _k2), _p_vref(_v_B, _k2))))
