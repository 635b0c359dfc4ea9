"""Malformed scenarios fail closed: `normalize_scenario` raises
ScenarioError, and `aexlab run` exits 1 with a message instead of a
traceback or a silently changed check."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aexlab import cli, explorer, reporting
from aexlab.runtimes import VARIANTS, Layout, build_machine


@pytest.mark.parametrize("section,key,value,words", [
    # `and r12, $-1` would reject every sp and certify sdk_style SAFE
    ("toggles", "alignment_required", 0, "alignment_required"),
    ("toggles", "alignment_required", 24, "power of two"),
    ("toggles", "aslr_stack_offset", 5000, "aslr_stack_offset"),
    ("toggles", "critical_pad", "x", "critical_pad"),
    ("toggles", "critical_pad", -1, "critical_pad"),
    ("toggles", "flag_strategy", "sometimes", "flag_strategy"),
    ("toggles", "sgx1_valid_check_removed", 1, "true or false"),
    ("hw_ext", "allowed", "a", "hw_ext allowed"),
    # a bound with no upper end reads "at least"; a closed range keeps its
    # interval
    ("budgets", "max_runs", 0, "budget max_runs must be at least 1, got 0"),
    ("hw_ext", "window", -1, "hw_ext window must be at least 0, got -1"),
    (None, "boundary", -1, "boundary must be at least 0, got -1"),
    ("toggles", "critical_pad", 4096,
     "toggle critical_pad must be in [0, 2048], got 4096"),
    ("hw_ext", "window", True, "hw_ext window"),
    ("layout", "pubbuf_base", 4096, "overlap"),
    # inside the 0x1000-byte thread-data page, the secret would be writable
    ("layout", None, {"secret_base": 0x29100, "ssa_base": 0x2A100},
     "overlap"),
    ("budgets", "max_runs", True, "budget max_runs"),
    # only the 6-action candidate template is enumerated
    ("budgets", "depth", 7, "budget depth must be 6"),
    ("budgets", "depth", 5, "budget depth must be 6"),
    (None, "boundary", "zz", "boundary"),
    # the search stops at any safety violation: a subset is not certified
    (None, "properties", ["confidentiality"], "every safety property"),
    # falsy values are not absent: only a missing key or null is
    ("toggles", None, [], "toggles must be an object"),
    ("toggles", None, 0, "toggles must be an object"),
    ("hw_ext", None, False, "hw_ext must be an object"),
    ("layout", None, "", "layout must be an object"),
    ("budgets", None, [], "budgets must be an object"),
    (None, "properties", [], "properties must be a non-empty list"),
    (None, "inject_classes", [], "inject_classes must be a non-empty list"),
])
def test_malformed_field_exits_one_with_message(tmp_path, capsys, section,
                                                key, value, words):
    doc = {"variant": "sdk_style", "adversary": "exhaustive"}
    if section is None:
        doc[key] = value
    else:
        doc[section] = value if key is None else {key: value}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["run", "--scenario", str(path),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: scenario:") and words in err
    assert not (tmp_path / "o").exists()


# (key, a value other than its default, the modes that read it)
_MODE_KEYS = [
    ("vector", "page_fault", {"scripted"}),
    ("route", "private", {"scripted"}),
    ("boundary", 3, {"benign_nested", "benign_critical"}),
    ("max_rounds", 5, {"multi_round_aslr"}),
    ("trials", 7, {"monte_carlo"}),
    ("inject_classes", ["page_fault"], {"exhaustive", "scripted"}),
]


@pytest.mark.parametrize("mode", reporting.ADVERSARY_MODES)
@pytest.mark.parametrize("key,value,readers", _MODE_KEYS)
def test_a_key_its_mode_never_reads_exits_one(tmp_path, capsys, mode, key,
                                              value, readers):
    # a value the mode would ignore fails closed, naming the key; the
    # default, spelled out or null, is accepted by every mode, and so is a
    # seed, which labels the trace header
    doc = {"variant": "sdk_style", "adversary": mode, "seed": 5, key: value}
    default = reporting.normalize_scenario({"variant": "sdk_style"})[key]
    for same in (default, None):
        reporting.normalize_scenario(dict(doc, **{key: same}))
    if mode in readers:
        assert reporting.normalize_scenario(doc)[key] == value
        return
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["run", "--scenario", str(path),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: scenario:") and f"{key} is read only" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["seed", "sgx_version", "adversary",
                                 "sp_confinement_mode", "max_rounds",
                                 "trials"])
def test_null_top_level_key_takes_the_default(key):
    absent = {"variant": "sdk_style"}
    assert (reporting.normalize_scenario(dict(absent, **{key: None}))
            == reporting.normalize_scenario(absent))


_json = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False)
    | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)
# values near the edges of every accepted range, and page-sized addresses
_numbers = (st.integers(-2, 5000)
            | st.sampled_from([8, 16, 32, 64, 4096, 8192, 1 << 48, 1 << 64])
            | st.integers(0, 0x60).map(lambda n: n * 0x1000))
_SECTION_KEYS = {
    "toggles": list(reporting._DEFAULT_TOGGLES),
    "hw_ext": list(reporting._DEFAULT_HW_EXT),
    "layout": list(Layout._fields),
}


def _section(keys):
    value = (_numbers | st.booleans() | st.none()
             | st.sampled_from(["postpone", "ignore", "a"]) | _json)
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=4),
                           value, max_size=4)


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       toggles=_section(_SECTION_KEYS["toggles"]) | _json,
       hw_ext=_section(_SECTION_KEYS["hw_ext"]) | _json,
       layout=_section(_SECTION_KEYS["layout"]) | _json)
def test_any_json_sections_normalize_or_raise(variant, toggles, hw_ext,
                                              layout):
    doc = {"variant": variant, "adversary": "exhaustive",
           "toggles": toggles, "hw_ext": hw_ext, "layout": layout}
    try:
        scenario = reporting.normalize_scenario(doc)
    except reporting.ScenarioError:
        return
    # only an object or null is a section; null is the empty one
    for section in (toggles, hw_ext, layout):
        assert section is None or isinstance(section, dict), section
    # what normalizes round-trips and builds: nothing fails further in
    text = reporting.dumps_scenario(scenario)
    assert reporting.loads_scenario(text) == scenario
    image = explorer._image_for(scenario)
    pages = sorted(build_machine(image, scenario["sgx_version"]).mem.pages,
                   key=lambda p: p.base)
    for lo, hi in zip(pages, pages[1:]):
        assert lo.base + lo.size <= hi.base, (lo, hi)
