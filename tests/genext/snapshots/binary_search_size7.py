"""Generating extension for 'bsearch' (source sha256 c8bd53f76896…).

Emitted by repro.genext.emit — do not edit.
"""

from repro.lang.ast import Const, Var
from repro.genext.runtime import (
    GenextRuntime, build_if, fold, let_exit,
    residual_call, residual_prim, trigger, unbound,
    _inf, _nan, _vec)

_MANIFEST = {'config': {},
 'facets': ['sign', 'parity', 'interval', 'size'],
 'functions': [{'name': 'bsearch',
                'needed': ['size'],
                'occurrences': {'V': 2, 'key': 1},
                'params': ['V', 'key']},
               {'name': 'walk',
                'needed': [],
                'occurrences': {'V': 4, 'hi': 3, 'key': 4, 'lo': 3},
                'params': ['V', 'key', 'lo', 'hi']}],
 'main': 'bsearch',
 'pattern': [{'kind': 'spec', 'text': 'size=7'}, {'kind': 'dyn'}],
 'pattern_fp': '90a942d335b8a2d84188c0ebe733d4c12e56c26422fea823115c2046a505f108',
 'protocol': 3,
 'source_sha256': 'c8bd53f76896a7072cedab3fb5fee6307d9bfa8678e7a302b5c3fd3f2a71ca9f'}

def _g_0(ctx, a0, a1):
    ctx.steps += 6
    _t1 = trigger(_pf_0, ctx, 'vsize', (a0, ), _fx_0)
    _t2 = yield residual_call(_pf_1, ctx, (a0, a1, _k0, _t1, ))
    return _t2

def _b1(ctx):
    ctx.steps += 1
    return _k1

def _b2(ctx, a0, a1, a2, a3):
    ctx.steps += 5
    _t1 = fold(_pf_1, ctx, '+', (a2, a3, ))
    ctx.steps += 1
    _t2 = fold(_pf_1, ctx, 'div', (_t1, _k2, ))
    _e3 = _t2[0]
    if isinstance(_e3, (Const, Var)):
        _lf4 = None
        _lv5 = _t2
    else:
        _lf4 = ctx.fresh('mid')
        _lv5 = (Var(_lf4), _t2[1])
    ctx.steps += 5
    _t6 = residual_prim(_pf_1, ctx, 'vref', (a0, _lv5, ))
    ctx.steps += 1
    _t7 = residual_prim(_pf_1, ctx, '=', (_t6, a1, ))
    ctx.steps += 6
    _t8 = residual_prim(_pf_1, ctx, 'vref', (a0, _lv5, ))
    ctx.steps += 1
    _t9 = residual_prim(_pf_1, ctx, '<', (_t8, a1, ))
    ctx.steps += 6
    _t10 = fold(_pf_1, ctx, '+', (_lv5, _k3, ))
    ctx.steps += 1
    _t11 = yield residual_call(_pf_1, ctx, (a0, a1, _t10, a3, ))
    ctx.steps += 7
    _t12 = fold(_pf_1, ctx, '-', (_lv5, _k3, ))
    _t13 = yield residual_call(_pf_1, ctx, (a0, a1, a2, _t12, ))
    _t14 = build_if(_pf_1, ctx, _t9[0], _t11, _t13)
    _t15 = build_if(_pf_1, ctx, _t7[0], _lv5, _t14)
    if _lf4 is None:
        _t16 = _t15
    else:
        _t16 = let_exit(ctx, _lf4, _e3, _t15)
    return _t16

def _g_1(ctx, a0, a1, a2, a3):
    ctx.steps += 4
    _t1 = fold(_pf_1, ctx, '>', (a2, a3, ))
    _e2 = _t1[0]
    if isinstance(_e2, Const) and isinstance(_e2.value, bool):
        ctx.stats.if_reductions += 1
        _t3 = _b1(ctx) if _e2.value else (yield _b2(ctx, a0, a1, a2, a3))
    else:
        _t3 = build_if(_pf_1, ctx, _e2, _b1(ctx), (yield _b2(ctx, a0, a1, a2, a3)))
    return _t3

_FUNCTIONS = {
    'bsearch': _g_0,
    'walk': _g_1
}

_rt = GenextRuntime(_MANIFEST, _FUNCTIONS)
_pf_0 = _rt.profile('bsearch')
_pf_1 = _rt.profile('walk')
_fx_0 = _rt.facet('size')
_k0 = _rt.const_pair('bsearch', 1)
_k1 = _rt.const_pair('walk', 0)
_k2 = _rt.const_pair('walk', 2)
_k3 = _rt.const_pair('walk', 1)

MANIFEST = _MANIFEST
runtime = _rt


def specialize(inputs):
    return _rt.specialize(inputs)


def specialize_specs(specs):
    return _rt.specialize_specs(specs)
