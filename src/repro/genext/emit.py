"""Emit a generating extension as a standalone Python module.

The offline specializer (:class:`~repro.offline.specializer.
OfflineSpecializer`) interprets the analysis' annotations at every node
it visits; this module stages that walk into Python *source* — the
generating extension the second Futamura projection promises — as flat
generator functions, one per subject-program function, with

* every annotation dispatch resolved at emission time (a FOLD prim is
  a ``fold(...)`` call, a static conditional is an ``if`` over the
  staged test — there is no annotation table left to consult),
* constant cells, facet handles and per-function profiles precomputed
  at module import,
* the per-unfold ``count_occurrences`` AST walks replaced by
  occurrence counts baked into the profile at emission time,
* no environment dictionaries: the subject program's variables become
  Python locals/parameters of the emitted decision functions,
* no host-stack recursion: a call site yields ``residual_call(...)``
  to the trampoline (:mod:`repro.engine.trampoline`), and a function
  that reaches no call ends with an unreachable ``yield``, and
* the offline walk's step count baked in: each straight-line segment
  adds its node count to ``ctx.steps`` before control leaves it, so
  the walk's shared operations meter budgets exactly as they do for
  the offline specializer (see :mod:`repro.offline.walk`).

The emitted module is *self-contained up to the repro package*: it
rebuilds its facet suite, engine config and analyzed input pattern
from an inline manifest, so it can be persisted (the ``genext``
artifact kind in :mod:`repro.store`), shipped, and imported in another
process without re-parsing or re-analyzing the subject program.  Its
``specialize(inputs)`` produces residual programs byte-identical to
:meth:`OfflineSpecializer.specialize` under the same analysis — budget
degradations included (the test suite pins this).

Division generalization: the module is keyed by ``(source, config)``
with the *specs excluded*, so one emitted genext must serve every spec
vector of its pattern class.  Literal specs therefore generalize to
"fully static of this sort" and facet specs to their abstract image —
:func:`generalized_pattern` computes the analyzed pattern, a
serializable descriptor list (for the manifest) and a pattern
fingerprint (distinct pattern classes of one program coexist as
separate entries in the same store row).

Code-size discipline: a *static* conditional needs its branches in two
contexts (the reduced path and the residual fallback the bottom caveat
forces), so branches are hoisted into shared module-level functions —
nested static tests emit linear, not exponential, code.  A hoisted
branch that reaches a call is a generator too, entered as ``(yield
_bN(ctx, ...))``; any other stays a direct call.
"""

from __future__ import annotations

import hashlib
import json
import pprint
import types
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.lang.ast import (
    Call, Const, Expr, FunDef, If, Let, Prim, Var, count_occurrences,
    free_vars)
from repro.lang.errors import PEError
from repro.lang.parser import parse_program
from repro.lang.values import Vector, is_value
from repro.facets import FacetSuite, default_suite
from repro.facets.abstract.vector import AbstractSuite, AbstractVector
from repro.offline.analysis import (
    AnalysisResult, FOLD, IfAnnotation, PrimAnnotation, TRIGGER,
    analysis_input, analyze)
from repro.genext.runtime import GENEXT_PROTOCOL, facet_name_of

_INF = float("inf")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_spec(text: str) -> str:
    """Order- and whitespace-insensitive form of one spec string."""
    text = str(text).strip()
    if "=" not in text:
        return text
    return ",".join(sorted(part.strip() for part in text.split(",")))


def generalized_pattern(suite: FacetSuite, abstract: AbstractSuite,
                        specs: Sequence[str]) \
        -> tuple[tuple[AbstractVector, ...], list[dict], str]:
    """The division an emitted genext is analyzed under.

    Returns ``(pattern, descriptors, fingerprint)``: the abstract
    input vectors for the facet analysis (each spec's
    :func:`~repro.offline.analysis.analysis_input`, the division the
    offline engine analyzes too), a JSON-serializable descriptor per
    input from which :func:`repro.genext.runtime.pattern_vector`
    rebuilds the same vectors, and a fingerprint identifying the
    pattern *class* — every literal of a sort maps to the same class
    ("fully static"), every facet spec to its abstract image
    (``size=3`` and ``size=7`` coincide, ``interval=1:9`` and
    ``interval=2:8`` do not).
    """
    from repro.service.specs import parse_spec
    pattern: list[AbstractVector] = []
    descriptors: list[dict] = []
    parts: list[list] = []
    for text in specs:
        spec = canonical_spec(text)
        item = parse_spec(suite, spec)
        image = analysis_input(abstract, item)
        pattern.append(image)
        if spec == "dyn":
            descriptors.append({"kind": "dyn"})
            parts.append(["dyn"])
        elif is_value(item):
            descriptors.append({"kind": "static", "sort": image.sort})
            parts.append(["static", image.sort])
        else:
            descriptors.append({"kind": "spec", "text": spec})
            parts.append(["abstract", image.sort, str(image)])
    fingerprint = _sha256(_canonical(parts))
    return tuple(pattern), descriptors, fingerprint


def genext_store_key(source_sha256: str,
                     config: Mapping[str, Any] | None,
                     facets: Sequence[str]) -> str:
    """The store row key of one program's genext bundle: source and
    engine config — *specs excluded*, that is the amortization."""
    return _sha256(_canonical({
        "kind": "genext",
        "source": source_sha256,
        "config": dict(config or {}),
        "facets": list(facets),
    }))


@dataclass(frozen=True)
class EmittedGenext:
    """One emitted generating-extension module, plus its identity."""

    python_source: str
    source_sha256: str
    store_key: str
    pattern_fingerprint: str
    main: str
    facets: tuple[str, ...]
    config: Mapping[str, Any]


def emit_genext(source: str, specs: Sequence[str],
                suite: FacetSuite | None = None,
                config: Mapping[str, Any] | None = None) \
        -> EmittedGenext:
    """Parse, analyze and emit: the whole per-``(source, config)``
    cost of the genext engine, paid once.

    ``config`` is the wire-format override mapping of a service
    request (``{"unfold_strategy": "never", ...}``), not a
    :class:`PEConfig` — the emitted module re-decodes it so the
    manifest stays JSON.
    """
    from repro.service.worker import _decode_config
    suite = suite if suite is not None else default_suite()
    wire_config = dict(config or {})
    _decode_config(wire_config)  # validate early; raises on bad keys
    program = parse_program(source)
    main = program.main
    if len(specs) != main.arity:
        raise PEError(
            f"{main.name}: expected {main.arity} specs, "
            f"got {len(specs)}")
    abstract = AbstractSuite(suite)
    pattern, descriptors, pattern_fp = generalized_pattern(
        suite, abstract, specs)
    analysis = analyze(program, list(pattern), abstract)
    facet_names = tuple(facet_name_of(f) for f in suite.facets)
    source_sha = _sha256(source)
    emitter = _Emitter(analysis, wire_config, facet_names,
                       descriptors, pattern_fp, source_sha)
    return EmittedGenext(
        python_source=emitter.emit(),
        source_sha256=source_sha,
        store_key=genext_store_key(source_sha, wire_config,
                                   facet_names),
        pattern_fingerprint=pattern_fp,
        main=main.name,
        facets=facet_names,
        config=wire_config,
    )


def load_genext(python_source: str,
                name: str = "repro_genext") -> types.ModuleType:
    """Execute an emitted module's source into a fresh module object.

    Raises on anything wrong with it — syntax damage, protocol
    mismatch, unknown facet names; callers that read persisted
    genexts treat any exception as a cache miss and re-emit.
    """
    from repro.faults import fault_point
    fault_point("genext.load")
    module = types.ModuleType(name)
    code = compile(python_source, f"<{name}>", "exec")
    exec(code, module.__dict__)
    for attr in ("specialize", "specialize_specs", "MANIFEST"):
        if not hasattr(module, attr):
            raise PEError(f"emitted genext lacks {attr!r}")
    return module


# -- the emitter -----------------------------------------------------------

class _Def:
    """One emitted function: header, body lines, temp counter, the
    node visits of the current straight-line segment not yet added to
    ``ctx.steps``, and whether the body yields (reaches a call)."""

    def __init__(self, header: str) -> None:
        self.header = header
        self.lines: list[str] = []
        self._n = 0
        self.pending = 0
        self.yields = False

    def tmp(self, prefix: str = "_t") -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (depth + 1) + line)

    def flush(self) -> None:
        """Close the segment: emitted before every helper call, branch
        call and return, so whatever runs next sees the offline walk's
        exact step count."""
        if self.pending:
            self.emit(f"ctx.steps += {self.pending}")
            self.pending = 0

    def render(self) -> str:
        return "\n".join([self.header, *self.lines])


class _Emitter:
    def __init__(self, analysis: AnalysisResult,
                 wire_config: Mapping[str, Any],
                 facet_names: Sequence[str],
                 descriptors: Sequence[Mapping[str, Any]],
                 pattern_fp: str, source_sha: str) -> None:
        self.analysis = analysis
        self.program = analysis.program
        self.wire_config = dict(wire_config)
        self.facet_names = tuple(facet_names)
        self.descriptors = [dict(d) for d in descriptors]
        self.pattern_fp = pattern_fp
        self.source_sha = source_sha
        self.fn_index = {fundef.name: i
                         for i, fundef in enumerate(self.program.defs)}
        self.defs: list[_Def] = []
        self._branches = 0
        #: (fn index, value class, rendered literal) -> cell name
        self._consts: dict[tuple, str] = {}
        self._const_lines: list[str] = []
        #: producer name -> cell name
        self._facet_cells: dict[str, str] = {}

    # -- assembly ------------------------------------------------------
    def emit(self) -> str:
        for i, fundef in enumerate(self.program.defs):
            d = _Def(f"def _g_{i}(ctx"
                     + "".join(f", a{j}"
                               for j in range(len(fundef.params)))
                     + "):")
            scope = {param: f"a{j}"
                     for j, param in enumerate(fundef.params)}
            atom = self._expr(fundef.body, i, scope, d)
            d.flush()
            d.emit(f"return {atom}")
            if not d.yields:
                d.emit("yield")  # a generator, as a call enters it
            self.defs.append(d)
        return self._render()

    def _render(self) -> str:
        main = self.program.main.name
        manifest = {
            "protocol": GENEXT_PROTOCOL,
            "source_sha256": self.source_sha,
            "main": main,
            "facets": list(self.facet_names),
            "config": self.wire_config,
            "pattern": self.descriptors,
            "pattern_fp": self.pattern_fp,
            "functions": [
                {
                    "name": fundef.name,
                    "params": list(fundef.params),
                    "needed": sorted(
                        self.analysis.needed_facets.get(
                            fundef.name, frozenset())),
                    "occurrences": {
                        param: count_occurrences(fundef.body, param)
                        for param in fundef.params
                    },
                }
                for fundef in self.program.defs
            ],
        }
        functions = ",\n".join(
            f"    {fundef.name!r}: _g_{i}"
            for i, fundef in enumerate(self.program.defs))
        profiles = "\n".join(
            f"_pf_{i} = _rt.profile({fundef.name!r})"
            for i, fundef in enumerate(self.program.defs))
        facet_cells = "\n".join(
            f"{cell} = _rt.facet({producer!r})"
            for producer, cell in self._facet_cells.items())
        parts = [
            f'"""Generating extension for {main!r} '
            f'(source sha256 {self.source_sha[:12]}…).\n\n'
            f'Emitted by repro.genext.emit — do not edit.\n"""',
            "",
            "from repro.lang.ast import Const, Var",
            "from repro.genext.runtime import (",
            "    GenextRuntime, build_if, fold, let_exit,",
            "    residual_call, residual_prim, trigger, unbound,",
            "    _inf, _nan, _vec)",
            "",
            "_MANIFEST = " + pprint.pformat(
                manifest, width=72, sort_dicts=True),
            "",
            *(d.render() + "\n" for d in self.defs),
            "_FUNCTIONS = {",
            functions,
            "}",
            "",
            "_rt = GenextRuntime(_MANIFEST, _FUNCTIONS)",
            profiles,
        ]
        if facet_cells:
            parts.append(facet_cells)
        if self._const_lines:
            parts.extend(self._const_lines)
        parts.extend([
            "",
            "MANIFEST = _MANIFEST",
            "runtime = _rt",
            "",
            "",
            "def specialize(inputs):",
            "    return _rt.specialize(inputs)",
            "",
            "",
            "def specialize_specs(specs):",
            "    return _rt.specialize_specs(specs)",
        ])
        return "\n".join(parts) + "\n"

    # -- module-level cells --------------------------------------------
    def _const_cell(self, fn_idx: int, value) -> str:
        rendered = self._render_value(value)
        key = (fn_idx, value.__class__.__name__, rendered)
        cell = self._consts.get(key)
        if cell is None:
            cell = f"_k{len(self._consts)}"
            self._consts[key] = cell
            fn = self.program.defs[fn_idx].name
            self._const_lines.append(
                f"{cell} = _rt.const_pair({fn!r}, {rendered})")
        return cell

    def _render_value(self, value) -> str:
        if isinstance(value, bool):
            return repr(value)
        if isinstance(value, int):
            return repr(value)
        if isinstance(value, float):
            if value != value:
                return "_nan"
            if value == _INF:
                return "_inf"
            if value == -_INF:
                return "-_inf"
            return repr(value)
        if isinstance(value, Vector):
            items = ", ".join("None" if item is None else repr(item)
                              for item in value.items)
            comma = "," if len(value.items) == 1 else ""
            return f"_vec(({items}{comma}))"
        raise PEError(
            f"cannot render constant {value!r} in an emitted genext")

    def _facet_cell(self, producer: str) -> str:
        cell = self._facet_cells.get(producer)
        if cell is None:
            cell = f"_fx_{len(self._facet_cells)}"
            self._facet_cells[producer] = cell
        return cell

    # -- expression emission -------------------------------------------
    def _expr(self, expr: Expr, fn_idx: int,
              scope: Mapping[str, str], d: _Def) -> str:
        """Emit statements computing ``expr``'s (Expr, FacetVector)
        pair; returns the atom (a Python expression, usually a local)
        holding it.  Visiting the node is one offline step."""
        d.pending += 1
        if isinstance(expr, Const):
            return self._const_cell(fn_idx, expr.value)
        if isinstance(expr, Var):
            atom = scope.get(expr.name)
            if atom is not None:
                return atom
            tmp = d.tmp()
            d.emit(f"{tmp} = unbound({expr.name!r})")
            return tmp
        if isinstance(expr, Prim):
            return self._prim(expr, fn_idx, scope, d)
        if isinstance(expr, If):
            return self._if(expr, fn_idx, scope, d)
        if isinstance(expr, Let):
            return self._let(expr, fn_idx, scope, d)
        if isinstance(expr, Call):
            return self._call(expr, fn_idx, scope, d)
        raise PEError(
            f"higher-order node {type(expr).__name__} reached the "
            f"generating extension")

    def _tuple(self, atoms: Sequence[str]) -> str:
        return "(" + "".join(atom + ", " for atom in atoms) + ")"

    def _prim(self, expr: Prim, fn_idx: int, scope, d: _Def) -> str:
        atoms = [self._expr(arg, fn_idx, scope, d)
                 for arg in expr.args]
        annotation = self.analysis.annotation_of(expr)
        args = self._tuple(atoms)
        pf = f"_pf_{fn_idx}"
        tmp = d.tmp()
        d.flush()
        if isinstance(annotation, PrimAnnotation) \
                and annotation.action == FOLD:
            d.emit(f"{tmp} = fold({pf}, ctx, {expr.op!r}, {args})")
        elif isinstance(annotation, PrimAnnotation) \
                and annotation.action == TRIGGER:
            facet = self._facet_cell(annotation.producer or "")
            d.emit(f"{tmp} = trigger({pf}, ctx, {expr.op!r}, {args}, "
                   f"{facet})")
        else:
            d.emit(f"{tmp} = residual_prim({pf}, ctx, {expr.op!r}, "
                   f"{args})")
        return tmp

    def _hoist(self, branch: Expr, fn_idx: int, scope, d: _Def) -> str:
        """Emit ``branch`` as a shared module-level function over its
        free variables; returns the Python expression that enters it
        from ``d``: a call, yielded if the branch reaches a call."""
        free = free_vars(branch)
        names = [name for name in scope if name in free]
        self._branches += 1
        fn = f"_b{self._branches}"
        hoisted = _Def(f"def {fn}(ctx"
                       + "".join(f", a{j}" for j in range(len(names)))
                       + "):")
        inner = {name: f"a{j}" for j, name in enumerate(names)}
        atom = self._expr(branch, fn_idx, inner, hoisted)
        hoisted.flush()
        hoisted.emit(f"return {atom}")
        self.defs.append(hoisted)
        call = f"{fn}({', '.join(['ctx', *(scope[n] for n in names)])})"
        if not hoisted.yields:
            return call
        d.yields = True
        return f"(yield {call})"

    def _if(self, expr: If, fn_idx: int, scope, d: _Def) -> str:
        annotation = self.analysis.annotation_of(expr)
        static_test = isinstance(annotation, IfAnnotation) \
            and annotation.test_bt.is_static
        pf = f"_pf_{fn_idx}"
        test_atom = self._expr(expr.test, fn_idx, scope, d)
        if static_test:
            # The branches are needed both reduced (taken branch only)
            # and residually (bottom caveat: the static test errored
            # upstream) — share them as hoisted functions.
            test = d.tmp("_e")
            d.emit(f"{test} = {test_atom}[0]")
            d.flush()
            then_call = self._hoist(expr.then, fn_idx, scope, d)
            else_call = self._hoist(expr.else_, fn_idx, scope, d)
            tmp = d.tmp()
            d.emit(f"if isinstance({test}, Const) "
                   f"and isinstance({test}.value, bool):")
            d.emit("ctx.stats.if_reductions += 1", depth=1)
            d.emit(f"{tmp} = {then_call} if {test}.value "
                   f"else {else_call}", depth=1)
            d.emit("else:")
            d.emit(f"{tmp} = build_if({pf}, ctx, {test}, {then_call}, "
                   f"{else_call})", depth=1)
            return tmp
        then_atom = self._expr(expr.then, fn_idx, scope, d)
        else_atom = self._expr(expr.else_, fn_idx, scope, d)
        tmp = d.tmp()
        d.flush()
        d.emit(f"{tmp} = build_if({pf}, ctx, {test_atom}[0], "
               f"{then_atom}, {else_atom})")
        return tmp

    def _let(self, expr: Let, fn_idx: int, scope, d: _Def) -> str:
        bound_atom = self._expr(expr.bound, fn_idx, scope, d)
        bound = d.tmp("_e")
        fresh = d.tmp("_lf")
        pair = d.tmp("_lv")
        d.emit(f"{bound} = {bound_atom}[0]")
        d.emit(f"if isinstance({bound}, (Const, Var)):")
        d.emit(f"{fresh} = None", depth=1)
        d.emit(f"{pair} = {bound_atom}", depth=1)
        d.emit("else:")
        d.emit(f"{fresh} = ctx.fresh({expr.name!r})", depth=1)
        d.emit(f"{pair} = (Var({fresh}), {bound_atom}[1])", depth=1)
        inner = dict(scope)
        inner[expr.name] = pair
        body_atom = self._expr(expr.body, fn_idx, inner, d)
        tmp = d.tmp()
        d.flush()
        d.emit(f"if {fresh} is None:")
        d.emit(f"{tmp} = {body_atom}", depth=1)
        d.emit("else:")
        d.emit(f"{tmp} = let_exit(ctx, {fresh}, {bound}, {body_atom})",
               depth=1)
        return tmp

    def _call(self, expr: Call, fn_idx: int, scope, d: _Def) -> str:
        callee = self.program.get(expr.fn)  # raises on unknown callee
        atoms = [self._expr(arg, fn_idx, scope, d)
                 for arg in expr.args]
        tmp = d.tmp()
        d.flush()
        d.emit(f"{tmp} = yield residual_call("
               f"_pf_{self.fn_index[callee.name]}, ctx, "
               f"{self._tuple(atoms)})")
        d.yields = True
        return tmp
