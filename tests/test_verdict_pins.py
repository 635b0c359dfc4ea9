"""Pinned exhaustive-oracle verdicts for the survey's attackable variants.

Each cell records what `explorer.run` reports: the counterexample branch
and every verdict (property, outcome, witness index, detail).  The values
were taken from the four independent per-property trace scans that the
fused safety monitor replaced, so any drift in detector semantics, witness
indexing or search order shows up here.
"""

import pytest

from aexlab import explorer, reporting

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
