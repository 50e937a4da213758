"""The sanitizer's rule catalog (SAN0xx).

Mirrors :mod:`repro.lint.rules` in spirit: every diagnostic the schedule
sanitizer can emit is declared here with a stable id, a severity and a
hint, so ``repro san --list`` and the docs never drift from the code.
"""

from __future__ import annotations

from repro.util.validate import Rule, Severity

__all__ = ["SAN_RULES"]

SAN_RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            rule_id="SAN001",
            severity=Severity.ERROR,
            description=(
                "write-write schedule race: two events at the same virtual "
                "instant both write a state cell with no happens-before "
                "path between them — their order is a scheduling accident"
            ),
            hint=(
                "order the writes causally (schedule one from the other), "
                "move one to a kernel epilogue, or annotate the cell "
                "declaration '# repro: san-ok[SAN001]' if provably "
                "commutative"
            ),
        ),
        Rule(
            rule_id="SAN002",
            severity=Severity.WARNING,
            description=(
                "read-write schedule race: an unordered same-instant "
                "reader observes a cell another event writes — whether it "
                "sees the old or new value is a scheduling accident"
            ),
            hint=(
                "make the read depend on the write (or vice versa), or "
                "annotate the cell declaration '# repro: san-ok[SAN002]' "
                "if either value is acceptable"
            ),
        ),
        Rule(
            rule_id="SAN020",
            severity=Severity.ERROR,
            description=(
                "undeclared schedule-reachable state: a method reachable "
                "from scheduled handlers mutates an instance attribute of "
                "a class that declares no tracked_state cell at all — the "
                "dynamic sanitizer is blind to every race on it"
            ),
            hint=(
                "declare the state with tracked_state(...) (repro.runtime."
                "state) so SAN001/SAN002 can see it, or annotate the "
                "mutation '# repro: san-ok[SAN020]' if it is init-only or "
                "commutative by construction"
            ),
        ),
        Rule(
            rule_id="SAN021",
            severity=Severity.WARNING,
            description=(
                "partially tracked state: the class declares tracked_state "
                "cells, but this schedule-reachable mutation is in a "
                "method with no cell access on any path from a covered "
                "method — races on it are invisible to the sanitizer"
            ),
            hint=(
                "note the mutation through an existing cell (note_write), "
                "declare a cell for the attribute, or annotate "
                "'# repro: san-ok[SAN021]' if the attribute is init-only "
                "or commutative by construction"
            ),
        ),
        Rule(
            rule_id="SAN010",
            severity=Severity.ERROR,
            description=(
                "perturbation divergence: re-running the scenario with "
                "seeded equal-timestamp tie-breaking produced a different "
                "schedule-stable trace digest — a schedule-order race is "
                "observable in the output"
            ),
            hint=(
                "the diverging run's perturbation seed reproduces it "
                "deterministically; use the SAN001/SAN002 findings to "
                "locate the racing state"
            ),
        ),
    )
}
