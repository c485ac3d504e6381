"""Chronological DPLL over CNF with watched-literal unit propagation.

Variables are numbered 1..nvars; a clause is a tuple of non-zero ints where a
negative literal asserts "variable is false".  The engine is deterministic by
construction: propagation order is a fixed function of the input, and one
depth-first loop serves two decision rules.

- ``search`` and ``minimize`` decide the lowest-numbered unassigned variable,
  trying the caller's preferred polarity first.  ``minimize`` runs an
  exhaustive branch-and-bound on that tree, so both are complete.
- ``solve`` is goal-directed.  Reading every unassigned variable as false, it
  finds a clause that is then unsatisfied and decides that clause's first
  unassigned positive literal, true first.  When no such clause is left, the
  true variables are a model.  Such a clause is positive-only or negates a
  true variable, so ``solve`` looks only at those, and it resumes its scan of
  the trail where the parent node stopped: a clause satisfied at a node stays
  satisfied below it unless a variable it negates becomes true, and that
  variable joins the trail after the scan position.
- ``solve`` also takes goals: once no clause is unmet, it decides the next
  goal that is still unassigned, true first, and carries on.  A goal whose
  subtree fails is flipped to false, and the flip cannot conflict.  When the
  goal is picked, the trail with every unassigned variable read as false is
  a model M, and M has the goal false, so each literal that propagating the
  goal's negation forces holds in M, and no clause is falsified.  The search
  therefore never backtracks past a goal's flip, and one depth-first search
  returns a model that holds greedily many goals: each goal is in it exactly
  when some model extends the trail at the moment that goal was picked.

Every entry point returns to the root level before it returns, so one
instance answers any number of calls: ``solve`` each under its own
assumption literals and goals, ``search`` and ``minimize`` over all variables.

``low_mark`` is the lowest trail length that backtracking has cut the trail
back to since a caller last raised it: the trail below it is unchanged since
then.  A caller that follows the assignment step by step, as the optimiser
does from its ``prune`` callback, reads the variables at ``low_mark`` and
above (with those it read there before) and then sets ``low_mark`` to the
trail's length.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

__all__ = ["DpllSolver"]


class DpllSolver:
    def __init__(self, nvars: int, clauses: Iterable[Sequence[int]]):
        self.nvars = nvars
        self.clauses = [tuple(c) for c in clauses]
        self.assign = [0] * (nvars + 1)  # 0 unassigned, 1 true, -1 false
        self.trail: list[int] = []
        self.low_mark = 0  # see the module docstring
        self.queue: list[int] = []
        self.watch: dict[int, list[int]] = {}
        self.wpair: list[list[int]] = []
        self.units: list[int] = []
        self.false_clause = False
        self.negated: list[list[tuple[int, ...]]] | None = None  # see solve
        for idx, clause in enumerate(self.clauses):
            self.wpair.append(list(clause[:2]))
            if not clause:
                self.false_clause = True
            elif len(clause) == 1:
                self.units.append(clause[0])
            else:
                for lit in clause[:2]:
                    self.watch.setdefault(lit, []).append(idx)
        # the root level: every unit clause and what it propagates
        self.root_ok = (not self.false_clause
                        and all(self._enqueue(lit) for lit in self.units)
                        and self._propagate())

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        if v == 0:
            return 0
        return 1 if (v > 0) == (lit > 0) else -1

    def _enqueue(self, lit: int) -> bool:
        val = self._value(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        self.assign[abs(lit)] = 1 if lit > 0 else -1
        self.trail.append(abs(lit))
        self.queue.append(lit)
        return True

    def _propagate(self) -> bool:
        while self.queue:
            lit = self.queue.pop()
            falsified = -lit
            watchers = self.watch.get(falsified)
            if not watchers:
                continue
            keep: list[int] = []
            for pos, ci in enumerate(watchers):
                pair = self.wpair[ci]
                other = pair[0] if pair[1] == falsified else pair[1]
                if self._value(other) == 1:
                    keep.append(ci)
                    continue
                moved = False
                for cand in self.clauses[ci]:
                    if cand == other or cand == falsified:
                        continue
                    if self._value(cand) != -1:
                        if pair[0] == falsified:
                            pair[0] = cand
                        else:
                            pair[1] = cand
                        self.watch.setdefault(cand, []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if not self._enqueue(other):
                    keep.extend(watchers[pos + 1:])
                    self.watch[falsified] = keep
                    self.queue.clear()
                    return False
            self.watch[falsified] = keep
        return True

    def _undo_to(self, mark: int) -> None:
        if mark < self.low_mark:
            self.low_mark = mark
        while len(self.trail) > mark:
            self.assign[self.trail.pop()] = 0
        self.queue.clear()

    def search(
        self,
        polarity: Sequence[bool] | None = None,
        on_model: Callable[[set[int]], bool] | None = None,
        prune: Callable[[list[int]], bool] | None = None,
    ) -> set[int] | None:
        """Depth-first search over all assignments.

        ``on_model(trueset)`` is called at each full model; return True to
        stop the search and hand that model back.  ``prune(assign)`` is
        consulted before expanding a node; return True to cut the branch.
        With both left as None this returns the first model found, or None
        when the formula is unsatisfiable.
        """
        assign, n = self.assign, self.nvars

        def lowest_unassigned(i: int) -> tuple[int, int]:
            while i < n and assign[i + 1] != 0:
                i += 1
            if i == n:
                return 0, i
            return (i + 1 if polarity is not None and polarity[i + 1] else -i - 1), i

        return self._run((), lowest_unassigned, 0, on_model, prune)

    def solve(self, assumptions: Iterable[int] = (), goals: Sequence[int] = ()) -> set[int] | None:
        """A model (as the set of true variables) in which every literal of
        ``assumptions`` holds, or None if there is none.  May be called any
        number of times.

        Goal-directed: only satisfiers of clauses that the true variables
        leave unmet are decided, and then the ``goals`` (variables) in order,
        true first (see the module docstring).  A variable left unassigned is
        not in the set, i.e. reads as false.  A goal is in the model exactly
        when some model extends the assignment at the moment it was picked.
        When no clause is unmet after the assumptions, the first goal they
        leave unassigned is the first decision: it is in the model exactly
        when some model holds it.
        """
        if self.negated is None:  # built here, so search and minimize never pay for it
            self.negated = [[] for _ in range(self.nvars + 1)]
            for clause in self.clauses:
                for v in [-lit for lit in clause if lit < 0] or [0]:
                    self.negated[v].append(clause)
        assign, unmet_satisfier = self.assign, self._unmet_satisfier

        def pick(state: tuple[int, int]) -> tuple[int, tuple[int, int]]:
            i, k = state  # the scan position and the index of the next goal
            lit, i = unmet_satisfier(i)
            if not lit:
                while k < len(goals) and assign[goals[k]]:
                    k += 1
                lit = goals[k] if k < len(goals) else 0
            return lit, (i, k)

        return self._run(assumptions, pick, (0, 0))

    def _unmet_satisfier(self, i: int) -> tuple[int, int]:
        """The first unassigned positive literal of the first clause, from scan
        position ``i`` on, that is unsatisfied with unassigned variables read as
        false (0 if none), and that clause's position.  Position 0 holds the
        positive-only clauses, position p > 0 those negating ``trail[p - 1]``."""
        assign, trail, negated = self.assign, self.trail, self.negated
        while i <= len(trail):
            v = trail[i - 1] if i else 0
            if assign[v] > 0 or not i:
                for clause in negated[v]:
                    for lit in clause:
                        if assign[lit] > 0 if lit > 0 else assign[-lit] <= 0:
                            break  # satisfied
                    else:  # unmet; propagation left it two or more open literals
                        return next(lit for lit in clause if lit > 0 and not assign[lit]), i
            i += 1
        return 0, i

    def _run(
        self,
        assumptions: Iterable[int],
        pick: Callable[[Any], tuple[int, Any]],
        start: Any,
        on_model: Callable[[set[int]], bool] | None = None,
        prune: Callable[[list[int]], bool] | None = None,
    ) -> set[int] | None:
        """Depth-first search under ``assumptions``; leaves the solver at the root
        level.  ``pick(scan)`` is the decision rule: it returns the next decision
        literal (0 once the assignment is a model) and the scan state that the
        literal's subtree resumes from; ``start`` is the root's scan state."""
        if not self.root_ok:
            return None
        root = len(self.trail)
        decisions: list[list] = []  # [trail mark, literal, flipped?, scan state]
        scan = start

        def backtrack() -> bool:
            nonlocal scan
            while decisions:
                mark, lit, flipped, saved = decisions.pop()
                self._undo_to(mark)
                if flipped:
                    continue
                decisions.append([mark, -lit, True, saved])
                if self._enqueue(-lit) and self._propagate():
                    scan = saved
                    return True
                # the flip conflicts immediately; next loop pops it as tried
            return False

        try:
            if not (all(self._enqueue(lit) for lit in assumptions) and self._propagate()):
                return None
            while True:
                if prune is not None and prune(self.assign):
                    if not backtrack():
                        return None
                    continue
                lit, scan = pick(scan)
                if not lit:
                    model = {v for v in self.trail if self.assign[v] > 0}
                    if on_model is None or on_model(model):
                        return model
                    if not backtrack():
                        return None
                    continue
                decisions.append([len(self.trail), lit, False, scan])
                if not (self._enqueue(lit) and self._propagate()):
                    if not backtrack():
                        return None
        finally:
            self._undo_to(root)

    def minimize(
        self,
        model_key: Callable[[set[int]], tuple],
        bound_key: Callable[[list[int]], tuple],
        polarity: Sequence[bool] | None = None,
    ) -> set[int] | None:
        """Exhaustive branch-and-bound for the model with the smallest key.

        ``bound_key(assign)`` must be a lower bound, in the same total order,
        on ``model_key`` of every model extending the partial assignment;
        branches whose bound is not below the incumbent are cut.  Returns the
        minimising model, or None when the formula is unsatisfiable.
        """
        best_key: list = [None]
        best_model: list = [None]

        def on_model(model: set[int]) -> bool:
            key = model_key(model)
            if best_key[0] is None or key < best_key[0]:
                best_key[0] = key
                best_model[0] = set(model)
            return False

        def prune(assign: list[int]) -> bool:
            return best_key[0] is not None and bound_key(assign) >= best_key[0]

        self.search(polarity=polarity, on_model=on_model, prune=prune)
        return best_model[0]
