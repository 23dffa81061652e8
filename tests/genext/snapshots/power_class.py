"""Generating extension for 'power' (source sha256 b4df8ac16444…).

Emitted by repro.genext.emit — do not edit.
"""

from repro.lang.ast import Const, Var
from repro.genext.runtime import (
    GenextRuntime, build_if, fold, let_exit,
    residual_call, residual_prim, trigger, unbound,
    _inf, _nan, _vec)

_MANIFEST = {'config': {},
 'facets': ['sign', 'parity', 'interval', 'size'],
 'functions': [{'name': 'power',
                'needed': [],
                'occurrences': {'n': 4, 'x': 3},
                'params': ['x', 'n']},
               {'name': 'square',
                'needed': [],
                'occurrences': {'y': 2},
                'params': ['y']}],
 'main': 'power',
 'pattern': [{'kind': 'dyn'}, {'kind': 'static', 'sort': 'int'}],
 'pattern_fp': '91ff4564b8f1d635b5e334c7507217b7815d3dc13da29b2ff3bafcae9370a87e',
 'protocol': 3,
 'source_sha256': 'b4df8ac164445f4501b91056faa6b8c8fc8600a33dcbcc8bb6eec777e9d9850a'}

def _b1(ctx):
    ctx.steps += 1
    return _k1

def _b3(ctx, a0, a1):
    ctx.steps += 6
    _t1 = fold(_pf_0, ctx, 'div', (a1, _k2, ))
    _t2 = yield residual_call(_pf_0, ctx, (a0, _t1, ))
    _t3 = yield residual_call(_pf_1, ctx, (_t2, ))
    return _t3

def _b4(ctx, a0, a1):
    ctx.steps += 7
    _t1 = fold(_pf_0, ctx, '-', (a1, _k1, ))
    _t2 = yield residual_call(_pf_0, ctx, (a0, _t1, ))
    _t3 = residual_prim(_pf_0, ctx, '*', (a0, _t2, ))
    return _t3

def _b2(ctx, a0, a1):
    ctx.steps += 5
    _t1 = fold(_pf_0, ctx, 'mod', (a1, _k2, ))
    ctx.steps += 1
    _t2 = fold(_pf_0, ctx, '=', (_t1, _k0, ))
    _e3 = _t2[0]
    if isinstance(_e3, Const) and isinstance(_e3.value, bool):
        ctx.stats.if_reductions += 1
        _t4 = (yield _b3(ctx, a0, a1)) if _e3.value else (yield _b4(ctx, a0, a1))
    else:
        _t4 = build_if(_pf_0, ctx, _e3, (yield _b3(ctx, a0, a1)), (yield _b4(ctx, a0, a1)))
    return _t4

def _g_0(ctx, a0, a1):
    ctx.steps += 4
    _t1 = fold(_pf_0, ctx, '=', (a1, _k0, ))
    _e2 = _t1[0]
    if isinstance(_e2, Const) and isinstance(_e2.value, bool):
        ctx.stats.if_reductions += 1
        _t3 = _b1(ctx) if _e2.value else (yield _b2(ctx, a0, a1))
    else:
        _t3 = build_if(_pf_0, ctx, _e2, _b1(ctx), (yield _b2(ctx, a0, a1)))
    return _t3

def _g_1(ctx, a0):
    ctx.steps += 3
    _t1 = residual_prim(_pf_1, ctx, '*', (a0, a0, ))
    return _t1
    yield

_FUNCTIONS = {
    'power': _g_0,
    'square': _g_1
}

_rt = GenextRuntime(_MANIFEST, _FUNCTIONS)
_pf_0 = _rt.profile('power')
_pf_1 = _rt.profile('square')
_k0 = _rt.const_pair('power', 0)
_k1 = _rt.const_pair('power', 1)
_k2 = _rt.const_pair('power', 2)

MANIFEST = _MANIFEST
runtime = _rt


def specialize(inputs):
    return _rt.specialize(inputs)


def specialize_specs(specs):
    return _rt.specialize_specs(specs)
