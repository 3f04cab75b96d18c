"""A standing catalogue of code mutants that the tests must kill.

Each :class:`Mutant` names a file, a snippet of it that occurs exactly once,
the text that replaces the snippet, and the test node ids that must each
fail once it is replaced.  ``tests/test_mutants.py`` checks, in tier-1, that
every snippet still occurs once and every named test still exists, so the
catalogue cannot rot silently.  ``tests/run_mutants.py`` applies each mutant
to a fresh copy of the tree and runs its tests; it is run by hand.

Builder-side mutants (``builder`` in the id) change what a builder makes,
not what a certificate checks, and name the certificate tests that must
catch the change: they show that each certificate is independent of what it
certifies.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str  # from the repository root
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # node ids, as pytest prints them, from the repository root


IE = "src/cantor_shrink/interval_embed.py"
GC = "src/cantor_shrink/graphcover.py"
CLI = "src/cantor_shrink/cli.py"
TIE = "tests/test_interval_embed.py"
TGC = "tests/test_graphcover.py"
TCLI = "tests/test_cli.py"
TACC = "tests/test_acceptance.py"
# the cases of test_cli.py's FLAG_BOUNDS
FLAG_CASES = ("extension-levels", "extension-rate", "extension-tail", "graph-levels", "odometer-depth",
              "oracle-trials", "system-shift")

MUTANTS = [
    Mutant(
        "lrs-vacuous-pass", IE,
        "passed=checked > 0 and not witnesses,",
        "passed=not witnesses,",
        (f"{TIE}::test_a_sweep_that_checks_no_pair_fails",),
    ),
    Mutant(
        "lrs-split-needs-three-parents", IE,
        "if len(targets[u] | targets[v]) > 1:",
        "if len(targets[u] | targets[v]) > 2:",
        (f"{TIE}::test_odometer_pair_whose_successors_split_is_a_witness",
         f"{TIE}::test_graph_lrs_reports_both_exclusion_kinds"),
    ),
    Mutant(
        "lrs-exceptional-parent-kept", IE,
        """            if parent in skip:
                excluded.append({**pair, "reason": "exceptional parent"})
                continue
""",
        "",
        (f"{TIE}::test_lrs_depth_one_certificate_and_exclusion",
         f"{TIE}::test_graph_lrs_reports_both_exclusion_kinds"),
    ),
    Mutant(
        "cli-least-value-refused", CLI,
        "        if value < low:\n",
        "        if value <= low:\n",
        tuple(f"{TCLI}::test_flags_at_their_least_value_are_accepted[{case}]" for case in FLAG_CASES),
    ),
    Mutant(
        "cli-one-below-least-value-accepted", CLI,
        "        if value < low:\n",
        "        if value < low - 1:\n",
        tuple(f"{TCLI}::test_flags_below_their_least_value_are_refused_while_parsing[{case}-1]"
              for case in FLAG_CASES),
    ),
    # the builder threads one level's scale factor wrong, so that the level's
    # scale and its lengths are wrong in the same way: the audit walks the
    # source descriptor for every level's factors, and so refuses the scale;
    # were the factors stored on each level instead, it would pass
    Mutant(
        "builder-scale-step-off-by-one", IE,
        "    for n, step in enumerate(steps, start=first):\n",
        "    for n, step in enumerate(steps, start=first):\n"
        "        step = (step[0], step[1] + 1, *step[2:]) if n == first + 1 else step\n",
        (f"{TACC}::test_criterion_01_odometer_depth8_audits",
         f"{TACC}::test_criterion_06_graph_scheme_depth3"),
    ),
    Mutant(
        "cover-cycle-path-one-short", GC,
        "+ [(self.n, cycle, i) for i in range(1, length)]",
        "+ [(self.n, cycle, i) for i in range(1, length - 1)]",
        (f"{TGC}::test_bidirectional_rejects_branching_identity_and_nonhom",),
    ),
    Mutant(
        "cover-cycles-drop-the-last", GC,
        "return [self.cycle_path(c) for c in range(1, len(self.cycle_lengths) + 1)]",
        "return [self.cycle_path(c) for c in range(1, len(self.cycle_lengths))]",
        (f"{TGC}::test_bidirectional_rejects_branching_identity_and_nonhom",),
    ),
    Mutant(
        "cover-two-cycle-level-admits-length-1", GC,
        "any(length < 2 for length in cycle_lengths)",
        "any(length < 2 - (len(cycle_lengths) == 2) for length in cycle_lengths)",
        (f"{TGC}::test_records_compare_as_tuples_and_replace_validates",),
    ),
    Mutant(
        "cover-word-admits-multiplicity-0", GC,
        "        if mult < 1:\n",
        "        if mult < 0:\n",
        (f"{TGC}::test_expand_cycle_expr_paths",),
    ),
    Mutant(
        "cover-transitivity-reads-the-first-cycle", GC,
        'entry["transitivity"] = not missed[-1]',
        'entry["transitivity"] = not missed[0]',
        (f"{TGC}::test_certify_cover_steps_agree_with_the_per_level_checks[transitive-1]",),
    ),
]
