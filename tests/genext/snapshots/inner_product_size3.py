"""Generating extension for 'iprod' (source sha256 27be1100b347…).

Emitted by repro.genext.emit — do not edit.
"""

from repro.lang.ast import Const, Var
from repro.genext.runtime import (
    GenextRuntime, build_if, fold, let_exit,
    residual_call, residual_prim, trigger, unbound,
    _inf, _nan, _vec)

_MANIFEST = {'config': {},
 'facets': ['sign', 'parity', 'interval', 'size'],
 'functions': [{'name': 'iprod',
                'needed': ['size'],
                'occurrences': {'A': 2, 'B': 1},
                'params': ['A', 'B']},
               {'name': 'dotprod',
                'needed': [],
                'occurrences': {'A': 2, 'B': 2, 'n': 4},
                'params': ['A', 'B', 'n']}],
 'main': 'iprod',
 'pattern': [{'kind': 'spec', 'text': 'size=3'},
             {'kind': 'spec', 'text': 'size=3'}],
 'pattern_fp': '2db4adb340c68cf225a1b1340689cb6b1844299c96ac01500c39f4c2e308a1c7',
 'protocol': 3,
 'source_sha256': '27be1100b34792cef959d872ddec759beb9ed8edae216d6f58ec3caba6f27598'}

def _g_0(ctx, a0, a1):
    ctx.steps += 3
    _t1 = trigger(_pf_0, ctx, 'vsize', (a0, ), _fx_0)
    _e2 = _t1[0]
    if isinstance(_e2, (Const, Var)):
        _lf3 = None
        _lv4 = _t1
    else:
        _lf3 = ctx.fresh('n')
        _lv4 = (Var(_lf3), _t1[1])
    ctx.steps += 4
    _t5 = yield residual_call(_pf_1, ctx, (a0, a1, _lv4, ))
    if _lf3 is None:
        _t6 = _t5
    else:
        _t6 = let_exit(ctx, _lf3, _e2, _t5)
    return _t6

def _b1(ctx):
    ctx.steps += 1
    return _k1

def _b2(ctx, a0, a1, a2):
    ctx.steps += 5
    _t1 = residual_prim(_pf_1, ctx, 'vref', (a0, a2, ))
    ctx.steps += 3
    _t2 = residual_prim(_pf_1, ctx, 'vref', (a1, a2, ))
    _t3 = residual_prim(_pf_1, ctx, '*', (_t1, _t2, ))
    ctx.steps += 6
    _t4 = fold(_pf_1, ctx, '-', (a2, _k2, ))
    _t5 = yield residual_call(_pf_1, ctx, (a0, a1, _t4, ))
    _t6 = residual_prim(_pf_1, ctx, '+', (_t3, _t5, ))
    return _t6

def _g_1(ctx, a0, a1, a2):
    ctx.steps += 4
    _t1 = fold(_pf_1, ctx, '=', (a2, _k0, ))
    _e2 = _t1[0]
    if isinstance(_e2, Const) and isinstance(_e2.value, bool):
        ctx.stats.if_reductions += 1
        _t3 = _b1(ctx) if _e2.value else (yield _b2(ctx, a0, a1, a2))
    else:
        _t3 = build_if(_pf_1, ctx, _e2, _b1(ctx), (yield _b2(ctx, a0, a1, a2)))
    return _t3

_FUNCTIONS = {
    'iprod': _g_0,
    'dotprod': _g_1
}

_rt = GenextRuntime(_MANIFEST, _FUNCTIONS)
_pf_0 = _rt.profile('iprod')
_pf_1 = _rt.profile('dotprod')
_fx_0 = _rt.facet('size')
_k0 = _rt.const_pair('dotprod', 0)
_k1 = _rt.const_pair('dotprod', 0.0)
_k2 = _rt.const_pair('dotprod', 1)

MANIFEST = _MANIFEST
runtime = _rt


def specialize(inputs):
    return _rt.specialize(inputs)


def specialize_specs(specs):
    return _rt.specialize_specs(specs)
