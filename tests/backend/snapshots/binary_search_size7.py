# Python residual emitted by repro.backend (PPE compiled backend).
# goal: bsearch/2
_k0 = 4
_k1 = 6
_k2 = 7
_k3 = 0
_k4 = 5
_k5 = 2
_k6 = 3
_k7 = 1


def _f_bsearch(_v_V, _v_key):
    _t1 = _p_eq(_p_vref(_v_V, _k0), _v_key)
    if _t1 is True:
        return _k0
    elif _t1 is False:
        _t2 = _p_lt(_p_vref(_v_V, _k0), _v_key)
        if _t2 is True:
            _t3 = _p_eq(_p_vref(_v_V, _k1), _v_key)
            if _t3 is True:
                return _k1
            elif _t3 is False:
                _t4 = _p_lt(_p_vref(_v_V, _k1), _v_key)
                if _t4 is True:
                    _t5 = _p_eq(_p_vref(_v_V, _k2), _v_key)
                    if _t5 is True:
                        return _k2
                    elif _t5 is False:
                        _t6 = _p_lt(_p_vref(_v_V, _k2), _v_key)
                        if _t6 is True:
                            return _k3
                        elif _t6 is False:
                            return _k3
                        else:
                            _rt_bad_test(_t6)
                    else:
                        _rt_bad_test(_t5)
                elif _t4 is False:
                    _t7 = _p_eq(_p_vref(_v_V, _k4), _v_key)
                    if _t7 is True:
                        return _k4
                    elif _t7 is False:
                        _t8 = _p_lt(_p_vref(_v_V, _k4), _v_key)
                        if _t8 is True:
                            return _k3
                        elif _t8 is False:
                            return _k3
                        else:
                            _rt_bad_test(_t8)
                    else:
                        _rt_bad_test(_t7)
                else:
                    _rt_bad_test(_t4)
            else:
                _rt_bad_test(_t3)
        elif _t2 is False:
            _t9 = _p_eq(_p_vref(_v_V, _k5), _v_key)
            if _t9 is True:
                return _k5
            elif _t9 is False:
                _t10 = _p_lt(_p_vref(_v_V, _k5), _v_key)
                if _t10 is True:
                    _t11 = _p_eq(_p_vref(_v_V, _k6), _v_key)
                    if _t11 is True:
                        return _k6
                    elif _t11 is False:
                        _t12 = _p_lt(_p_vref(_v_V, _k6), _v_key)
                        if _t12 is True:
                            return _k3
                        elif _t12 is False:
                            return _k3
                        else:
                            _rt_bad_test(_t12)
                    else:
                        _rt_bad_test(_t11)
                elif _t10 is False:
                    _t13 = _p_eq(_p_vref(_v_V, _k7), _v_key)
                    if _t13 is True:
                        return _k7
                    elif _t13 is False:
                        _t14 = _p_lt(_p_vref(_v_V, _k7), _v_key)
                        if _t14 is True:
                            return _k3
                        elif _t14 is False:
                            return _k3
                        else:
                            _rt_bad_test(_t14)
                    else:
                        _rt_bad_test(_t13)
                else:
                    _rt_bad_test(_t10)
            else:
                _rt_bad_test(_t9)
        else:
            _rt_bad_test(_t2)
    else:
        _rt_bad_test(_t1)
