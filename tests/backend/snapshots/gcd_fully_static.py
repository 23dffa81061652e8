# Python residual emitted by repro.backend (PPE compiled backend).
# goal: gcd/0
_k0 = 6


def _f_gcd():
    return _k0
