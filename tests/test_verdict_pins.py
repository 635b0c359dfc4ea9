"""Pinned exhaustive-oracle verdicts for the survey's attackable variants.

Each cell records what `explorer.run` reports: the counterexample branch
and every verdict (property, outcome, witness index, detail).  The values
were taken from the four independent per-property trace scans that the
fused safety monitor replaced, so any drift in detector semantics, witness
indexing or search order shows up here.  Each default certification
also has all eight counters of its search work pinned.
"""

import pytest

from aexlab import explorer, reporting, runtimes

NONE = "no_violation_found"
VIOLATED = "violated"

# witness index and popped/recorded words per (variant, sgx)
_HITS = {
    ("sdk_style", 2): (150, 0x27f10, 0x10a4),
    ("open_enclave_style", 1): (112, 0x27f10, 0x109d),
    ("open_enclave_style", 2): (143, 0x27f10, 0x109d),
    ("enarx_style", 1): (113, 0x27f90, 0x109e),
    ("enarx_style", 2): (144, 0x27f90, 0x109e),
}


def _vuln_verdicts(witness: int, popped: int, recorded: int) -> list[dict]:
    return [
        {"property": "sp_confinement", "outcome": NONE},
        {"property": "anchor_integrity", "outcome": VIOLATED,
         "witness_index": witness,
         "detail": f"anchor popped {popped:#x}, recorded {recorded:#x}"},
        {"property": "cfi", "outcome": VIOLATED, "witness_index": witness,
         "detail": f"ret at 0x1027 to {popped:#x}"},
        {"property": "confidentiality", "outcome": NONE},
    ]


CELLS = [(v, sgx, mode)
         for v in ("sdk_style", "open_enclave_style", "enarx_style")
         for sgx in (1, 2) for mode in ("range", "strict")]


@pytest.mark.parametrize("variant,sgx,mode", CELLS)
def test_exhaustive_verdicts_pinned(variant, sgx, mode):
    scenario = reporting.normalize_scenario({
        "variant": variant, "sgx_version": sgx, "adversary": "exhaustive",
        "sp_confinement_mode": mode})
    out = explorer.run(scenario)
    got = [v.to_dict() for v in out.verdicts]
    hit = _HITS.get((variant, sgx))
    if hit is None:
        # sgx1 reports an injected exception as invalid to sdk_style's
        # validity check, so the whole bounded space is certified
        stats = {"boundaries": 5904, "runs": 6336, "steps": 291120}
        assert out.exit_code == explorer.EXIT_OK
        assert "branch" not in out.stats
        assert got == [{"property": p, "outcome": NONE, "stats": stats}
                       for p in ("sp_confinement", "anchor_integrity",
                                 "cfi", "confidentiality")]
        return
    assert out.exit_code == explorer.EXIT_VIOLATION
    assert out.stats["branch"] == [0, 0, 0, 0, 14]
    assert out.stats["runs"] == 2
    assert got == _vuln_verdicts(*hit)


# All eight SearchStats counters of each default certification, as
# (runs, steps, boundaries, executed, stepped, branches, classed, cut):
# the work behind each verdict, so that a faster search cannot hide doing
# less or other work.
_WORK = {
    ("sdk_style", 1): (6336, 291120, 5904, 176, 6376, 36, 24, 0),
    ("sdk_style", 2): (2, 150, 1, 2, 150, 1, 0, 0),
    ("open_enclave_style", 1): (2, 112, 1, 2, 112, 1, 0, 0),
    ("open_enclave_style", 2): (2, 143, 1, 2, 143, 1, 0, 0),
    ("enarx_style", 1): (2, 113, 1, 2, 113, 1, 0, 0),
    ("enarx_style", 2): (2, 144, 1, 2, 144, 1, 0, 0),
    ("dedicated_stack", 1): (6912, 290304, 6480, 48, 1596, 36, 33, 0),
    ("dedicated_stack", 2): (6912, 310176, 6480, 48, 1734, 36, 33, 0),
    ("nssa_disabled", 1): (6336, 63360, 5904, 44, 38, 36, 33, 0),
    ("nssa_disabled", 2): (6336, 63360, 5904, 44, 38, 36, 33, 0),
    ("graphene_emulated", 1): (6336, 255696, 5904, 59, 1559, 36, 30, 0),
    ("graphene_emulated", 2): (6336, 268104, 5904, 64, 1779, 36, 29, 0),
    ("hw_reentry_mask", 1): (6480, 84096, 6048, 45, 154, 36, 33, 0),
    ("hw_reentry_mask", 2): (6480, 84096, 6048, 45, 154, 36, 33, 0),
    ("hw_irq_quota", 1): (6480, 264096, 6048, 45, 1404, 36, 33, 0),
    ("hw_irq_quota", 2): (6480, 274032, 6048, 45, 1473, 36, 33, 0),
}


def test_every_variant_has_its_work_pinned():
    assert set(_WORK) == {(v, sgx) for v in runtimes.VARIANTS
                          for sgx in (1, 2)}


@pytest.mark.parametrize("variant,sgx", sorted(_WORK))
def test_default_certification_work_pinned(variant, sgx):
    stats = explorer.certify(reporting.normalize_scenario(
        {"variant": variant, "sgx_version": sgx})).outcome.stats
    assert (stats.runs, stats.steps, stats.boundaries, stats.executed,
            stats.stepped, stats.branches, stats.classed,
            stats.cut) == _WORK[variant, sgx]
