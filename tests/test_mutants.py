"""Mutants of the constructions that shipped leaf checks must catch.

Each row names a leaf check and holds a mutant (a monkeypatch of the
construction under test), the call of the leaf at the parameters and seed
the shipped `standard` suite gives it, and the counterexample the FAIL must
carry.  The same call without the mutant must not fail, so the FAIL is the
mutant's doing.
"""

import json
from pathlib import Path

import pytest

from orbitlab.cocycles import verify_inverse_pair
from orbitlab.constructions import (CylinderAction, StableOE, build_cylinder_oe,
                                    coset_freshness_report, dependency_radius_report,
                                    extension_action_report,
                                    extension_distinctness_report, parenthesis_match)
from orbitlab.groups import cyclic
from orbitlab.spaces import derive_seed, seed_stream
from orbitlab.words import ball

ROOT = Path(__file__).resolve().parents[1]
STANDARD = json.loads((ROOT / "src" / "orbitlab" / "suites" / "standard.cfg").read_text())
SEED, SCAN_RADIUS, SAMPLES = STANDARD["seed"], STANDARD["scan_radius"], STANDARD["samples"]


def _b0_inverse_repeats_b0(monkeypatch):
    """A b0^-1 letter that does not undo b0: it carries the 1-cylinder
    across the b-shift by b, not by b^-1 (a wrong sign)."""
    letter_apply = CylinderAction._letter_apply

    def mutant(self, letter, x):
        _, part, v = letter.syllables[0]
        if self.spec_up.part_name(part) != "b0" or v == 1:
            return letter_apply(self, letter, x)
        moved = self.twisted.apply(self.b0, self.theta(1, x))
        return self.theta(0, moved, inverse=True)

    monkeypatch.setattr(CylinderAction, "_letter_apply", mutant)


def _extension_action():
    # lemma-3's extension-action: kappa 2, min(samples, 25, 10) points
    soe = build_cylinder_oe(2, SCAN_RADIUS)
    return extension_action_report(soe, cyclic(2), ball(soe.system.spec_up, 1),
                                   min(SAMPLES, 10), derive_seed(SEED, "l3/act"))


def _inverse_pair_and_length():
    # lemma-2's inverse-pair-and-length: kappa 2, the ball of radius 2, both
    # length functions; the control run ends undetermined (763 checked, 162
    # undetermined), each point's memo entries forgotten before the next
    system = CylinderAction(2, SCAN_RADIUS)
    points = [system.sample_in_cylinder(s) for s in seed_stream(SEED, "l2/inv", SAMPLES)]
    return verify_inverse_pair(system.omega(), system.omega_prime(),
                               ball(system.spec_up, 2), points,
                               lengths=(system.b_length_up, system.b_length_down),
                               name="inverse-pair-and-length")


def _partition_word_dropped(monkeypatch):
    """The address without its transport syllable phi_i(lam * x): each
    partition cell's address is the cocycle value alone."""

    def mutant(self, i, lam, x):
        return self.forward.target.word_part(self.forward.evaluate(lam, x))

    monkeypatch.setattr(StableOE, "address", mutant)


def _extension_distinctness():
    # lemma-3's first extension-address-distinctness: kappa 2, b-ball of radius 1
    soe = build_cylinder_oe(2, SCAN_RADIUS)
    lams = ball(soe.system.spec_up, 1, parts=soe.system.b_parts, exponent_bound=1)
    return extension_distinctness_report(soe, lams, min(SAMPLES, 25),
                                         derive_seed(SEED, "l3/dist"))


def _witness_forgets_its_cylinder(monkeypatch):
    """A fresh-coordinate witness that ignores which cylinder it extends:
    every i gets the witness of i = 0."""
    extension_word = CylinderAction.extension_word

    def mutant(self, i, eps, g, x, om):
        return extension_word(self, 0, eps, g, x, om)

    monkeypatch.setattr(CylinderAction, "extension_word", mutant)


def _fresh_coset_grades():
    # lemma-2's fresh-coset-grades: kappa 2, grades up to 2, min(samples, 20)
    # points; the control run ends undetermined (95,724 checked, 5,349
    # undetermined)
    return coset_freshness_report(CylinderAction(2, SCAN_RADIUS), 2, min(SAMPLES, 20),
                                  derive_seed(SEED, "l2/fresh"))


def _match_overruns_its_radius(monkeypatch):
    """A parenthesis-match scan that runs on to 20 times the scan radius, so
    the cocycle reads past the a-offset the check allows.  A 3x overrun
    stays inside every word's bound (the largest a-offset it reads is 226)
    and is not caught, so the row needs the longer one."""

    def mutant(self, z, symbol, inverse=False):
        return parenthesis_match(z, symbol, 20 * self.scan_radius, inverse)

    monkeypatch.setattr(CylinderAction, "match", mutant)


def _cocycle_dependency_radius():
    # lemma-2's cocycle-dependency-radius: kappa 2, b-grade up to 2,
    # min(samples, 10) points; the control run ends undetermined (3,290
    # checked, 690 undetermined)
    return dependency_radius_report(CylinderAction(2, SCAN_RADIUS), 2, min(SAMPLES, 10),
                                    derive_seed(SEED, "l2/dep"))


ROWS = {
    "cocycle-dependency-radius": (_match_overruns_its_radius, _cocycle_dependency_radius,
                                  {"g": "a^-1 b0^-1 a^-1 b0^-1 a^-1",
                                   "coset": "a^-1 b^-1 a^1070 b^-1 a^240", "b_grade": 2,
                                   "a_offset": 1311, "allowed_grade": 2,
                                   "allowed_offset": 640}),
    "extension-action": (_b0_inverse_repeats_b0, _extension_action,
                         {"first": "b0^-1", "second": "b0^1"}),
    "extension-address-distinctness": (_partition_word_dropped, _extension_distinctness,
                                       {"address": "a^-2", "first": [1, "a^-1"],
                                        "second": [2, "a^-1"]}),
    "fresh-coset-grades": (_witness_forgets_its_cylinder, _fresh_coset_grades,
                           {"coset": "a^-2 b^1 a^-1", "first": [0, 1, "a^-1", -2],
                            "second": [1, 1, "a^-1", -2]}),
    "inverse-pair-and-length": (_b0_inverse_repeats_b0, _inverse_pair_and_length,
                                {"g": "b0^-1", "forward": "b^-1 a^1",
                                 "back": "b1^-1 a^1",
                                 "point": "('seeded', 4205538112523174506, (('e', 0),))"}),
}


@pytest.mark.parametrize("leaf", sorted(ROWS))
def test_leaf_check_catches_its_mutant(monkeypatch, leaf):
    install, run, counterexample = ROWS[leaf]
    assert run().verdict != "fail"
    install(monkeypatch)
    report = run()
    assert (report.name, report.verdict) == (leaf, "fail")
    assert report.to_payload()["counterexample"] == counterexample
