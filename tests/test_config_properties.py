"""Property tests of the config parser: replace round trips and fuzzed rejection.

Every key is fuzzed with values that must be refused: text that is not a
number, lists, nan and inf, and values outside the key's range.  Each must
raise ConfigError, never another exception type.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemodisk.config import ConfigError, _DEFAULTS, parse_config

# ---------------------------------------------------------------------------
# valid documents
# ---------------------------------------------------------------------------


def _spelled(values):
    """A number as given, or as the text a config file would hold."""
    return values.flatmap(lambda x: st.sampled_from([x, repr(x)]))


masses = st.one_of(_spelled(st.floats(0.1, 100.0)),
                   st.sampled_from(["pi", "2pi", "4pi", "8pi", "10pi", "0.5pi"]))
positive = st.floats(1e-3, 1e3)

# (key, strategy) of the entries that any valid document may set on its own
OPTIONAL = {
    "grid.n": st.one_of(st.integers(16, 4096), st.integers(16, 4096).map(float),
                        st.integers(16, 4096).map(str)),
    "grid.gamma": _spelled(st.floats(1.0, 3.0)),
    "scheme.dt0": _spelled(st.floats(1e-6, 1.0)),
    "scheme.cfl": _spelled(st.floats(1e-3, 1.0)),
    "scheme.t_end": _spelled(positive),
    "scheme.snapshot_every": _spelled(positive),
    "scheme.u_blowup_threshold": st.one_of(st.none(), _spelled(st.floats(1.0, 1e9))),
    "scheme.dt_min": _spelled(st.floats(1e-14, 1e-7)),
    "output.dir": st.text("abcxyz_/", min_size=1, max_size=8),
    "seed": st.one_of(st.integers(0, 2 ** 40), st.integers(0, 99).map(str)),
}

initial_entries = st.one_of(
    st.just({}),
    st.just({"initial.kind": "constant"}),
    _spelled(positive).map(lambda lam: {"initial.kind": "pks", "initial.lambda": lam}),
    _spelled(positive).map(lambda a: {"initial.kind": "barrier", "initial.a": a}),
)


@st.composite
def documents(draw):
    doc = {"mass": draw(masses)}
    for key in draw(st.sets(st.sampled_from(sorted(OPTIONAL)))):
        doc[key] = draw(OPTIONAL[key])
    doc.update(draw(initial_entries))
    return doc


@st.composite
def updates(draw):
    keys = draw(st.sets(st.sampled_from(sorted(OPTIONAL) + ["mass"]), max_size=4))
    out = {key: draw(masses if key == "mass" else OPTIONAL[key]) for key in keys}
    if draw(st.booleans()):
        out.update(draw(initial_entries))
    return out


def _parsed_or_error(doc):
    try:
        return parse_config(doc)
    except ConfigError:
        return ConfigError


@settings(max_examples=200, deadline=None)
@given(documents(), updates())
def test_replace_matches_parsing_the_merged_document(doc, upd):
    cfg = parse_config(doc)
    assert cfg.replace() == cfg
    try:
        replaced = cfg.replace(**upd)
    except ConfigError:
        replaced = ConfigError
    assert replaced == _parsed_or_error({**doc, **upd})


def test_replace_is_compared_on_parsed_fields():
    # two spellings of one config are one config
    a = parse_config({"mass": "8pi", "grid.n": "64"})
    b = parse_config({"mass": 8.0 * math.pi, "grid.n": 64.0})
    assert a == b
    assert a.replace(**{"grid.n": 128}) == b.replace(**{"grid.n": "128"})


# ---------------------------------------------------------------------------
# fuzzed rejection
# ---------------------------------------------------------------------------

# letters other than e, i, n and p between digits: never a float or integer
# literal, "nan", "inf" or a multiple of pi
not_numbers = st.from_regex(r"[0-9]*[a-dfghjklmoq-z/]+[0-9.]*", fullmatch=True)
lists = st.lists(st.floats(1.0, 2.0), max_size=3)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, "nan", "inf", "-inf",
                              "infpi", "nanpi"])

# out-of-range values of each numeric key, the other keys at their defaults
# (scheme.dt0 = 1e-3 and scheme.dt_min = 1e-12)
OUT_OF_RANGE = {
    "mass": st.floats(-1e3, 0.0),
    "grid.n": st.one_of(st.integers(-10, 15), st.integers(2 ** 20 + 1, 2 ** 64),
                        st.floats(16.01, 4095.99).filter(lambda x: not x.is_integer())),
    "grid.gamma": st.one_of(st.floats(-10.0, 0.999), st.floats(3.001, 1e6)),
    "scheme.dt0": st.floats(-1.0, 1e-12),
    "scheme.cfl": st.one_of(st.floats(-1.0, 0.0), st.floats(1.001, 1e3)),
    "scheme.t_end": st.floats(-1e3, 0.0),
    "scheme.snapshot_every": st.floats(-1e3, 0.0),
    "scheme.u_blowup_threshold": st.floats(-1e6, 0.0),
    "scheme.dt_min": st.one_of(st.floats(-1.0, 0.0), st.floats(1e-3, 1e3)),
    "initial.lambda": st.floats(-1e3, 0.0),
    "initial.a": st.floats(-1e3, 0.0),
    "seed": st.one_of(st.integers(-2 ** 40, -1),
                      st.floats(0.01, 99.99).filter(lambda x: not x.is_integer())),
}

# the preset that makes each initial parameter count
CONTEXT = {"initial.lambda": {"initial.kind": "pks"},
           "initial.a": {"initial.kind": "barrier"}}


def test_every_numeric_key_is_fuzzed():
    assert set(OUT_OF_RANGE) == set(_DEFAULTS) - {"initial.kind", "output.dir"} | {"mass"}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(
        not_numbers, lists, non_finite, _spelled(OUT_OF_RANGE[key])))))
def test_bad_numeric_values_raise_config_error(entry):
    key, value = entry
    doc = {"mass": "4pi", **CONTEXT.get(key, {}), key: value}
    with pytest.raises(ConfigError):
        parse_config(doc)


@settings(max_examples=100, deadline=None)
@given(st.one_of(not_numbers, lists, st.floats(allow_nan=True))
       .filter(lambda v: str(v).strip() not in ("constant", "pks", "barrier")))
def test_unknown_initial_kind_raises_config_error(kind):
    with pytest.raises(ConfigError):
        parse_config({"mass": "4pi", "initial.kind": kind})
