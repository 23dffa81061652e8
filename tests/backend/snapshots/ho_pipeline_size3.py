# Python residual emitted by repro.backend (PPE compiled backend).
# goal: main/1
_k0 = 2
_k1 = 1.0
_k2 = 3
_k3 = 1


def _f_main(_v_V):
    def _lam1(_v_a_1):
        return _p_mul(_v_a_1, _k0)
    _t1 = _rt_close(_lam1, 1)
    def _lam2(_v_a_3):
        return _p_add(_v_a_3, _k1)
    _v_f_6 = _f_compose_1(_t1, _rt_close(_lam2, 1))
    return _rt_apply(_v_f_6, (_p_add(_rt_apply(_v_f_6, (_p_add(_rt_apply(_v_f_6, (_p_vref(_v_V, _k2),)), _p_vref(_v_V, _k0)),)), _p_vref(_v_V, _k3)),))


def _f_compose_1(_v_f, _v_g):
    def _lam3(_v_a_5, *, _c_f=_v_f, _c_g=_v_g):
        return _rt_apply(_c_f, (_rt_apply(_c_g, (_v_a_5,)),))
    return _rt_close(_lam3, 1)
