"""Rule ``solver-contract`` — hot paths stay sparse and solutions stay frozen.

PR 7 rebuilt the LP hot path on batched *sparse* solves: the modules in
:data:`HOT_PATH_MODULES` must never materialize a dense constraint
matrix (``to_dense``/``toarray`` exist only for the dense reference
backends and certificate checkers), and :class:`repro.solvers.base\
.LPSolution` arrays are read-only values: a stitched batch solve hands
each block a view into one shared solver buffer, and one solution may
be read by several consumers — mutating one in place silently changes
what every other holder sees.

Findings:

``solver-dense``
    A ``.to_dense()`` / ``.toarray()`` / ``.todense()`` call, or a
    ``from_dense(...)`` construction, inside a hot-path module.  Dense
    round-trips are O(rows x cols) memory on problems the sparse path
    handles in O(nnz) — reintroducing one silently reverts the PR-7
    speedup.
``solver-mutation``
    A write through a solution array: ``sol.x[i] = ...``,
    ``sol.dual_eq[...] += ...``, rebinding ``.x``/``.dual_eq``
    attributes, mutating ndarray methods (``fill``/``sort``/``put``/
    ``resize``/``partition``) on them, ``np.copyto(sol.x, ...)``, or
    flipping ``.setflags(write=True)`` / ``.flags.writeable`` to defeat
    the read-only guard.  Copy first: ``x = solution.x.copy()``.

Scope is the static hot-path module list — dense backends
(``reference``, ``scipy_backend``) and certificate checkers legitimately
densify and are simply out of scope, not allowlisted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import qualified_name
from repro.lint.context import ModuleUnit, ProjectContext
from repro.lint.findings import LintFinding
from repro.lint.registry import LintRule, register_rule

#: PR-7-vectorized modules that must stay sparse / mutation-free.
HOT_PATH_MODULES = frozenset(
    {
        "repro.core.interval_allocation",
        "repro.core.interval_scheduling",
        "repro.core.assign_paths",
        "repro.solvers.highs_engine",
        "repro.solvers.ilp_backend",
    }
)

_DENSE_METHODS = frozenset({"to_dense", "toarray", "todense"})
_SOLUTION_ARRAYS = frozenset({"x", "dual_eq"})
_MUTATING_METHODS = frozenset(
    {"fill", "sort", "put", "resize", "partition", "itemset"}
)


def _solution_array_base(node: ast.expr) -> str | None:
    """The array attribute name when ``node`` reaches ``.x``/``.dual_eq``.

    Matches the attribute itself (``sol.x``) and one subscript layer
    over it (``sol.x[i]``) — the shapes an in-place write goes through.
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _SOLUTION_ARRAYS:
        return node.attr
    return None


@register_rule
class SolverContractRule(LintRule):
    id = "solver-contract"
    name = "solver sparse/immutability contract"
    description = (
        "Hot-path modules must not densify sparse matrices or mutate "
        "LPSolution arrays"
    )

    def check_module(
        self, unit: ModuleUnit, project: ProjectContext
    ) -> Iterator[LintFinding]:
        if unit.module not in HOT_PATH_MODULES:
            return
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(unit, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_store(unit, node)

    def _finding(
        self, unit: ModuleUnit, node: ast.AST, symbol: str, detail: str
    ) -> LintFinding:
        return LintFinding(
            rule=self.id,
            path=unit.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            symbol=symbol,
            detail=detail,
        )

    def _check_call(
        self, unit: ModuleUnit, node: ast.Call
    ) -> Iterator[LintFinding]:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _DENSE_METHODS:
                yield self._finding(
                    unit,
                    node,
                    func.attr,
                    f".{func.attr}() materializes a dense matrix in a "
                    "hot-path module (solver-dense); keep the sparse CSR "
                    "representation end to end",
                )
                return
            base = _solution_array_base(func.value)
            if base is not None:
                if func.attr in _MUTATING_METHODS:
                    yield self._finding(
                        unit,
                        node,
                        base,
                        f".{base}.{func.attr}() mutates an LPSolution "
                        "array in place (solver-mutation); copy first",
                    )
                elif func.attr == "setflags":
                    yield self._finding(
                        unit,
                        node,
                        base,
                        f".{base}.setflags() toggles the read-only guard "
                        "on a shared solution array (solver-mutation)",
                    )
        elif isinstance(func, ast.Name) and func.id == "from_dense":
            yield self._finding(
                unit,
                node,
                "from_dense",
                "from_dense() builds a CSR matrix through a dense "
                "intermediate in a hot-path module (solver-dense)",
            )
        name = qualified_name(func)
        if (
            name in ("numpy.copyto", "np.copyto")
            and node.args
            and _solution_array_base(node.args[0]) is not None
        ):
            yield self._finding(
                unit,
                node,
                _solution_array_base(node.args[0]) or "",
                "np.copyto() writes into an LPSolution array "
                "(solver-mutation); allocate a fresh array instead",
            )

    def _check_store(
        self, unit: ModuleUnit, node: ast.Assign | ast.AugAssign
    ) -> Iterator[LintFinding]:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            base = _solution_array_base(target)
            if base is not None:
                shape = (
                    f".{base}[...]"
                    if isinstance(target, ast.Subscript)
                    else f".{base}"
                )
                yield self._finding(
                    unit,
                    node,
                    base,
                    f"assignment to {shape} mutates an LPSolution in a "
                    "hot-path module (solver-mutation); solutions are "
                    "read-only values shared between consumers",
                )
            elif (
                isinstance(target, ast.Attribute)
                and target.attr == "writeable"
            ):
                yield self._finding(
                    unit,
                    node,
                    "writeable",
                    "assignment to .flags.writeable defeats the "
                    "LPSolution read-only guard (solver-mutation)",
                )
