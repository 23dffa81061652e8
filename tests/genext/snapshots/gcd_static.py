"""Generating extension for 'gcd' (source sha256 e1b676b0a177…).

Emitted by repro.genext.emit — do not edit.
"""

from repro.lang.ast import Const, Var
from repro.genext.runtime import (
    GenextRuntime, build_if, fold, let_exit,
    residual_call, residual_prim, trigger, unbound,
    _inf, _nan, _vec)

_MANIFEST = {'config': {},
 'facets': ['sign', 'parity', 'interval', 'size'],
 'functions': [{'name': 'gcd',
                'needed': [],
                'occurrences': {'a': 2, 'b': 3},
                'params': ['a', 'b']}],
 'main': 'gcd',
 'pattern': [{'kind': 'static', 'sort': 'int'},
             {'kind': 'static', 'sort': 'int'}],
 'pattern_fp': 'c25dfff87183c2a1389671ff7ff2e5d6c8d4d5e26198b16c2da22534860f6cbc',
 'protocol': 3,
 'source_sha256': 'e1b676b0a17731a9047653948a3300e013231c3015e9e718207d96b5a4f5109a'}

def _b1(ctx, a0):
    ctx.steps += 1
    return a0

def _b2(ctx, a0, a1):
    ctx.steps += 5
    _t1 = fold(_pf_0, ctx, 'mod', (a0, a1, ))
    _t2 = yield residual_call(_pf_0, ctx, (a1, _t1, ))
    return _t2

def _g_0(ctx, a0, a1):
    ctx.steps += 4
    _t1 = fold(_pf_0, ctx, '=', (a1, _k0, ))
    _e2 = _t1[0]
    if isinstance(_e2, Const) and isinstance(_e2.value, bool):
        ctx.stats.if_reductions += 1
        _t3 = _b1(ctx, a0) if _e2.value else (yield _b2(ctx, a0, a1))
    else:
        _t3 = build_if(_pf_0, ctx, _e2, _b1(ctx, a0), (yield _b2(ctx, a0, a1)))
    return _t3

_FUNCTIONS = {
    'gcd': _g_0
}

_rt = GenextRuntime(_MANIFEST, _FUNCTIONS)
_pf_0 = _rt.profile('gcd')
_k0 = _rt.const_pair('gcd', 0)

MANIFEST = _MANIFEST
runtime = _rt


def specialize(inputs):
    return _rt.specialize(inputs)


def specialize_specs(specs):
    return _rt.specialize_specs(specs)
