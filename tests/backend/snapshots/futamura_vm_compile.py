# Python residual emitted by repro.backend (PPE compiled backend).
# goal: run/1
_k0 = 10.0
_k1 = 3.0


def _f_run(_v_x):
    return _p_mul(_p_add(_v_x, _k0), _k1)
