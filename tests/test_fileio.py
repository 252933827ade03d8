"""Scenario JSON, the benchmark preset, and the packed dataset container."""

import re
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloc import (
    AttackAssignment,
    DetectorConfig,
    DomainError,
    EmpiricalFreq,
    GaussianNoise,
    Mima,
    NoAttack,
    ParseError,
    Point,
    PsiOffset,
    SpoofBias,
    QuantizedDataset,
    build_paper_setup,
    detect_all,
    generate_dataset,
    load_dataset,
    load_scenario,
    parse_scenario,
    render_scenario,
    save_dataset,
    save_scenario,
)
from quantloc.cli import main
from quantloc.measurement import PackedBits


def _base_doc():
    return {
        "schema_version": 1,
        "constants": {
            "p0": 1.0,
            "d0": 100.0,
            "gamma": 2.0,
            "upsilon1": 20.0,
            "upsilon2": 20.0,
            "kappa": 1.0,
        },
        "roi": {"center": [0.0, 100.0], "radius": 5.0},
        "target": [0.0, 100.0],
        "sensors": [
            {"id": 1, "position": [-30.0, 0.0]},
            {"id": 2, "position": [0.0, 0.0]},
            {"id": 3, "position": [30.0, 0.0]},
            {"id": 4, "position": [-100.0, 0.0], "secure": True},
            {"id": 5, "position": [100.0, 0.0], "secure": True},
        ],
    }


def _parse(doc):
    return parse_scenario(json.dumps(doc))


def test_parse_minimal_document_defaults():
    s, assignment = _parse(_base_doc())
    assert len(s.sensors) == 5
    assert s.sensor(1).threshold == 1.0
    assert s.sensor(1).noise == GaussianNoise(0.0, 1.0)
    assert s.upsilon1 == 20.0 and s.kappa == 1.0
    assert assignment.attacked_ids() == ()


def test_parse_overrides_and_linspace():
    doc = _base_doc()
    doc["threshold_default"] = 2.0
    doc["noise_default"] = {"kind": "gaussian", "location": 0.5, "scale": 2.0}
    doc["sensors"] = [
        {
            "linspace": {"count": 3, "start": -30.0, "stop": 30.0, "first_id": 1},
            "y": 1.0,
        },
        {
            "id": 4,
            "position": [-100.0, 0.0],
            "secure": True,
            "threshold": 0.5,
            "noise": {"kind": "gaussian"},
        },
        {"id": 5, "position": [100.0, 0.0], "secure": True},
    ]
    s, _ = _parse(doc)
    assert [x.id for x in s.sensors] == [1, 2, 3, 4, 5]
    assert s.sensor(2).position == Point(0.0, 1.0)
    assert s.sensor(1).threshold == 2.0
    assert s.sensor(1).noise == GaussianNoise(0.5, 2.0)
    assert s.sensor(4).threshold == 0.5
    assert s.sensor(4).noise == GaussianNoise(0.0, 1.0)


def test_parse_linspace_open_endpoints():
    doc = _base_doc()
    doc["sensors"] = [
        {
            "linspace": {
                "count": 2,
                "start": -1000.0,
                "stop": -900.0,
                "first_id": 1,
                "include_start": False,
            }
        },
        {"id": 4, "position": [-100.0, 0.0], "secure": True},
        {"id": 5, "position": [100.0, 0.0], "secure": True},
    ]
    s, _ = _parse(doc)
    assert s.sensor(1).position.x == pytest.approx(-950.0)
    assert s.sensor(2).position.x == pytest.approx(-900.0)


@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_past_the_float_range_names_its_field(sign, tmp_path, capsys):
    doc = _base_doc()
    doc["sensors"][0]["position"][0] = sign * 10**400
    with pytest.raises(ParseError, match=re.escape("sensors[0].position[0]: expected a finite")):
        _parse(doc)
    # through the CLI: the package's error, not a traceback
    doc = _base_doc()
    doc["constants"]["kappa"] = sign * 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "error: constants.kappa: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "written, long, message",
    [
        ('"kappa": 1.0', '"kappa": {}', "constants.kappa: expected a number"),
        ('"id": 1,', '"id": {},', "sensors[0].id: expected an integer"),
    ],
    ids=["kappa", "id"],
)
@pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
def test_an_integer_too_long_to_read_names_its_field(
    written, long, message, sign, tmp_path, capsys
):
    # 5,001 digits: past the 4,300 that int() converts from text
    digits = "1" + "0" * 5000
    text = json.dumps(_base_doc()).replace(written, long.format(sign + digits), 1)
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse_scenario(text)
    assert "5001 digits" in str(info.value) and "00000" not in str(info.value)
    # through the CLI: the package's error and exit 2, not a traceback
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "00000" not in err


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_scenario_booleans_must_be_json_true_or_false(value):
    doc = _base_doc()
    doc["sensors"][3]["secure"] = value
    with pytest.raises(ParseError, match=re.escape("sensors[3].secure: expected true or false")):
        _parse(doc)
    for key in ("include_start", "include_stop"):
        doc = _base_doc()
        doc["sensors"][0] = {
            "linspace": {"count": 2, "start": -90.0, "stop": -60.0, "first_id": 10, key: value}
        }
        with pytest.raises(
            ParseError, match=re.escape(f"sensors[0].linspace.{key}: expected true or false")
        ):
            _parse(doc)


def test_parse_attacks_with_ranges_and_lists():
    doc = _base_doc()
    doc["attacks"] = [
        {"ids": {"range": [1, 2]}, "variant": "mima", "params": {"psi0": 0.0, "psi1": 0.1}},
        {"ids": [3], "variant": "psi_offset", "params": {"offset": -0.05}},
    ]
    _, assignment = _parse(doc)
    assert assignment.attacked_ids() == (1, 2, 3)
    assert assignment.spec_for(1) == Mima(0.0, 0.1)
    assert assignment.spec_for(3) == PsiOffset(-0.05)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("schema_version"), "schema_version"),
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.update(sensors=[]), "sensors"),
        (lambda d: d.update(sensors="nope"), "sensors"),
        (lambda d: d["sensors"].__setitem__(0, "nope"), "sensors[0]"),
        (lambda d: d["constants"].pop("p0"), "p0"),
        (lambda d: d["constants"].update(gamma="two"), "gamma"),
        (lambda d: d["constants"].update(p0=True), "p0"),
        (lambda d: d.update(attacks={"ids": [1]}), "attacks"),
        (lambda d: d.update(attacks=["nope"]), "attacks[0]"),
        (
            lambda d: d.update(
                attacks=[
                    {"ids": [1], "variant": "mima", "params": {"psi0": 0, "psi1": 0.1}},
                    {"ids": [1], "variant": "psi_offset", "params": {"offset": 0.1}},
                ]
            ),
            "already has an attack",
        ),
        (
            lambda d: d.update(attacks=[{"ids": [1], "variant": "bitrot"}]),
            "unknown attack variant",
        ),
        (
            lambda d: d.update(attacks=[{"ids": {"range": [3, 1]}, "variant": "none"}]),
            "range",
        ),
        (
            lambda d: d.update(
                attacks=[{"ids": [4], "variant": "mima", "params": {"psi0": 0, "psi1": 0.1}}]
            ),
            "secure",
        ),
        (
            lambda d: d.update(
                attacks=[{"ids": [1], "variant": "mima", "params": {"psi0": 2, "psi1": 0}}]
            ),
            "psi0",
        ),
        (
            lambda d: d.update(attacks=[{"ids": [1], "variant": "mima", "params": {"psi0": 0}}]),
            "attacks[0].params: missing required field 'psi1'",
        ),
        (
            lambda d: d.update(attacks=[{"ids": [1], "variant": 7}]),
            "attacks[0].variant: unknown attack variant 7",
        ),
        (
            lambda d: d.update(attacks=[{"ids": [1], "variant": ["mima"]}]),
            "attacks[0].variant: unknown attack variant ['mima']",
        ),
        (
            lambda d: d.update(
                attacks=[
                    {"ids": [1], "variant": "mima", "params": {"psi0": 0, "psi1": 0.1, "bias": 2}}
                ]
            ),
            "attacks[0].params.bias: unknown parameter for variant 'mima'",
        ),
        (
            lambda d: d.update(attacks=[{"ids": [1], "variant": "none", "params": {"offset": 0}}]),
            "attacks[0].params.offset: unknown parameter",
        ),
        (
            lambda d: d.update(attacks=[{"ids": [1], "variant": "spoof_bias", "params": [1.0]}]),
            "attacks[0].params: expected an object",
        ),
        (
            lambda d: d.update(
                attacks=[{"ids": [1], "variant": "psi_offset", "params": {"offset": "x"}}]
            ),
            "attacks[0].params.offset: expected a number",
        ),
        (lambda d: d["sensors"].pop(4), "scenario invalid"),
        (lambda d: d.update(target=[0.0, 300.0]), "scenario invalid"),
    ],
)
def test_parse_errors_carry_field_paths(mutate, fragment):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(ParseError, match=re.escape(fragment)):
        _parse(doc)


def test_parse_rejects_non_json():
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_scenario("{")


def test_render_round_trip_and_byte_stability(toy_scenario, tmp_path):
    from quantloc import AttackAssignment

    assignment = AttackAssignment(specs={1: Mima(0.0, 0.0105)})
    text = render_scenario(toy_scenario, assignment)
    assert text == render_scenario(toy_scenario, assignment)
    [entry] = json.loads(text)["attacks"]
    assert list(entry.items()) == [
        ("ids", [1]),
        ("variant", "mima"),
        ("params", {"psi0": 0.0, "psi1": 0.0105}),
    ]
    assert list(entry["params"]) == ["psi0", "psi1"]
    s2, a2 = parse_scenario(text)
    assert s2 == toy_scenario
    assert a2 == assignment
    assert render_scenario(s2, a2) == text
    path = tmp_path / "scenario.json"
    save_scenario(toy_scenario, path, assignment)
    s3, a3 = load_scenario(path)
    assert s3 == toy_scenario and a3 == assignment


_finite = st.floats(allow_nan=False, allow_infinity=False)
_specs = st.one_of(
    st.just(NoAttack()),
    st.builds(Mima, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(PsiOffset, _finite),
    st.builds(SpoofBias, _finite),
)


@settings(max_examples=200, deadline=None)
@given(specs=st.dictionaries(st.sampled_from([1, 2, 3]), _specs, min_size=1))
def test_every_attack_variant_round_trips_byte_identically(toy_scenario_doc, specs):
    s, _ = parse_scenario(toy_scenario_doc)
    text = render_scenario(s, AttackAssignment(specs=specs))
    s2, a2 = parse_scenario(text)
    assert render_scenario(s2, a2) == text
    assert a2.specs == specs


@pytest.fixture(scope="module")
def toy_scenario_doc():
    return json.dumps(_base_doc())


# -- scenario documents beyond the attack entries ----------------------------

_pos = st.floats(1e-3, 1e3)
_coord = st.floats(-1e6, 1e6)
_noises = st.fixed_dictionaries(
    {"kind": st.just("gaussian")},
    optional={"location": st.floats(-5.0, 5.0), "scale": st.floats(0.1, 10.0)},
)


@st.composite
def _scenario_docs(draw):
    """A valid scenario document with explicit sensors, linspace rows and optional keys."""
    ids = iter(range(draw(st.integers(-1000, 1000)), 10**6, draw(st.integers(1, 3))))
    sensors = []
    for linspace in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        extra = draw(
            st.fixed_dictionaries({}, optional={"threshold": st.floats(-3.0, 3.0), "noise": _noises})
        )
        if linspace:
            block = draw(
                st.fixed_dictionaries(
                    {"count": st.integers(1, 4), "start": _coord, "stop": _coord},
                    optional={"include_start": st.booleans(), "include_stop": st.booleans()},
                )
            )
            block["first_id"] = next(ids)
            for _ in range(block["count"] - 1):
                next(ids)
            entry = {"linspace": block, **extra}
            if draw(st.booleans()):
                entry["y"] = draw(_coord)
        else:
            entry = {"id": next(ids), "position": [draw(_coord), draw(_coord)], **extra}
            if draw(st.booleans()):
                entry["secure"] = False
        sensors.append(entry)
    for x in (-100.0, 100.0):
        sensors.insert(
            draw(st.integers(0, len(sensors))),
            {"id": next(ids), "position": [x, 0.0], "secure": True},
        )
    constants = {name: draw(_pos) for name in ("p0", "d0", "gamma")}
    constants.update(
        draw(st.fixed_dictionaries({}, optional={k: _pos for k in ("upsilon1", "upsilon2", "kappa")}))
    )
    center = [draw(_coord), draw(_coord)]
    radius = draw(_pos)
    doc = {
        "schema_version": 1,
        "constants": constants,
        "roi": {"center": center, "radius": radius},
        "target": [center[0] + draw(st.floats(-0.9, 0.9)) * radius, center[1]],
        "sensors": sensors,
    }
    if draw(st.booleans()):
        doc["noise_default"] = draw(_noises)
    if draw(st.booleans()):
        doc["threshold_default"] = draw(st.floats(-3.0, 3.0))
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=_scenario_docs())
def test_valid_scenario_documents_round_trip_byte_identically(doc):
    s, a = _parse(doc)
    text = render_scenario(s, a)
    s2, a2 = parse_scenario(text)
    assert s2 == s and a2 == a
    assert render_scenario(s2, a2) == text


_NOT_NUMBERS = ["1.0", True, None, [1.0], {"v": 1.0}, math.nan, math.inf, -math.inf]
_NOT_POSITIVE = [0.0, -1.0, -1e-300]
_NOT_INTEGERS = [1.5, "1", True, None, 2.0]
_NOT_POINTS = [[0.0], [0.0, 0.0, 0.0], "0,0", {"x": 0.0}, [math.nan, 0.0], [0.0, "1"]]


@st.composite
def _malformed(draw):
    """A valid document with one field broken, and the path its error must start with."""
    doc = draw(_scenario_docs())
    sensors = doc["sensors"]
    explicit = [i for i, e in enumerate(sensors) if "linspace" not in e]
    rows = [i for i, e in enumerate(sensors) if "linspace" in e]
    kinds = ["constant", "missing_constant", "roi", "unknown", "threshold", "noise", "sensor"]
    kinds += ["linspace", "repeat"] if rows else []
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        name = draw(st.sampled_from(["p0", "d0", "gamma", "upsilon1", "upsilon2", "kappa"]))
        doc["constants"][name] = draw(st.sampled_from(_NOT_NUMBERS + _NOT_POSITIVE))
        return doc, f"constants.{name}: "
    if kind == "missing_constant":
        name = draw(st.sampled_from(["p0", "d0", "gamma"]))
        del doc["constants"][name]
        return doc, f"constants: missing required field {name!r}"
    if kind == "roi":
        if draw(st.booleans()):
            doc["roi"]["radius"] = draw(st.sampled_from(_NOT_NUMBERS + _NOT_POSITIVE))
            return doc, "roi.radius"
        doc["roi"]["center"] = draw(st.sampled_from(_NOT_POINTS))
        return doc, "roi.center"
    if kind == "unknown":
        where, path = draw(
            st.sampled_from(
                [(doc, ""), (doc["constants"], "constants."), (doc["roi"], "roi.")]
                + [(sensors[i], f"sensors[{i}].") for i in range(len(sensors))]
                + [(sensors[i]["linspace"], f"sensors[{i}].linspace.") for i in rows]
            )
        )
        key = draw(st.sampled_from(["treshold", "Radius", "comment"]))
        where[key] = 1.0
        return doc, f"{path}{key}: unknown field"
    if kind == "threshold":
        if draw(st.booleans()):
            doc["threshold_default"] = draw(st.sampled_from(_NOT_NUMBERS))
            return doc, "threshold_default"
        i = draw(st.integers(0, len(sensors) - 1))
        sensors[i]["threshold"] = draw(st.sampled_from(_NOT_NUMBERS))
        return doc, f"sensors[{i}].threshold"
    if kind == "noise":
        field, bad = draw(
            st.sampled_from(
                [("scale", v) for v in _NOT_NUMBERS + _NOT_POSITIVE]
                + [("location", v) for v in _NOT_NUMBERS]
                + [("kind", v) for v in ["laplace", None, 1]]
            )
        )
        noise = {"kind": "gaussian", field: bad}
        if draw(st.booleans()):
            doc["noise_default"] = noise
            return doc, f"noise_default.{field}"
        i = draw(st.integers(0, len(sensors) - 1))
        sensors[i]["noise"] = noise
        return doc, f"sensors[{i}].noise.{field}"
    if kind == "sensor":
        i = draw(st.sampled_from(explicit))
        field, bad = draw(
            st.sampled_from(
                [("id", v) for v in _NOT_INTEGERS]
                + [("position", v) for v in _NOT_POINTS]
                + [("secure", v) for v in ["true", 1, None]]
            )
        )
        sensors[i][field] = bad
        return doc, f"sensors[{i}].{field}"
    if kind == "linspace":
        i = draw(st.sampled_from(rows))
        field, bad = draw(
            st.sampled_from(
                [("count", v) for v in _NOT_INTEGERS + [0, -2]]
                + [("first_id", v) for v in _NOT_INTEGERS]
                + [(end, v) for end in ("start", "stop") for v in _NOT_NUMBERS]
                + [("include_stop", v) for v in ["false", 0]]
                + [("y", v) for v in _NOT_NUMBERS]
            )
        )
        if field == "y":
            sensors[i]["y"] = bad
            return doc, f"sensors[{i}].y"
        sensors[i]["linspace"][field] = bad
        return doc, f"sensors[{i}].linspace.{field}"
    # a row whose first id repeats the id of the first sensor listed before it
    i = draw(st.sampled_from(rows))
    first = sensors[0]
    if i == 0:
        sensors.append({"id": first["linspace"]["first_id"], "position": [0.0, 0.0]})
        return doc, f"sensors[{len(sensors) - 1}].id: sensor id"
    sensors[i]["linspace"]["first_id"] = first["id"] if "id" in first else first["linspace"]["first_id"]
    return doc, f"sensors[{i}].linspace.first_id: sensor id"


@settings(max_examples=400, deadline=None)
@given(case=_malformed())
def test_malformed_scenario_fields_raise_parse_error_naming_their_path(case):
    doc, path = case
    with pytest.raises(ParseError) as info:
        _parse(doc)
    assert str(info.value).startswith(path), (str(info.value), path)


def test_paper_setup_validation():
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            build_paper_setup(scale=bad)
    # 0.003 would put three-quarters of a sensor in each group
    with pytest.raises(DomainError):
        build_paper_setup(scale=0.003)


def test_paper_setup_layout():
    s, assignment = build_paper_setup(scale=0.02, psi1=0.0095)
    assert len(s.sensors) == 12
    assert [x.id for x in s.unsecure()] == list(range(1, 11))
    left_x = [s.sensor(j).position.x for j in range(1, 6)]
    right_x = [s.sensor(j).position.x for j in range(6, 11)]
    assert left_x == pytest.approx([-980.0, -960.0, -940.0, -920.0, -900.0])
    assert right_x == pytest.approx([900.0, 920.0, 940.0, 960.0, 980.0])
    a, b = s.secure_pair()
    assert (a.id, a.position.x) == (11, -1000.0)
    assert (b.id, b.position.x) == (12, 1000.0)
    assert s.target == Point(0.0, 1e5)
    assert s.roi.radius == 7500.0
    assert (s.p0, s.d0, s.gamma) == (1.0, 1e5, 2.0)
    assert assignment.attacked_ids() == tuple(range(1, 6))
    assert assignment.spec_for(1) == Mima(0.0, 0.0095)


def test_paper_setup_full_scale_counts():
    s, assignment = build_paper_setup()
    assert len(s.unsecure()) == 500
    assert len(assignment.attacked_ids()) == 250


def test_paper_setup_round_trips_through_json():
    s, assignment = build_paper_setup(scale=0.02)
    s2, a2 = parse_scenario(render_scenario(s, assignment))
    assert s2 == s
    assert a2 == assignment


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    k = 13  # not a multiple of 8, so the last byte carries padding
    bits = {j: rng.integers(0, 2, size=k).astype(np.uint8) for j in (1, 2, 5)}
    data = QuantizedDataset(bits=bits, k=k, rng_seed=(1 << 63) + 5, trial_index=7)
    path = tmp_path / "trial.bits"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert loaded.k == k
    assert loaded.rng_seed == (1 << 63) + 5
    assert loaded.trial_index == 7
    assert set(loaded.bits) == {1, 2, 5}
    for j in bits:
        np.testing.assert_array_equal(loaded.bits[j], bits[j])

    # Packed zero counts equal the unpacked ones, around the byte edges and
    # on all-zero and all-one rows.
    for k in (1, 7, 8, 9, 10001):
        bits = {
            1: rng.integers(0, 2, size=k).astype(np.uint8),
            2: np.zeros(k, dtype=np.uint8),
            3: np.ones(k, dtype=np.uint8),
        }
        save_dataset(QuantizedDataset(bits=bits, k=k, rng_seed=0), path)
        loaded = load_dataset(path)
        counts = [k - int(np.count_nonzero(bits[j])) for j in (3, 1, 2)]
        assert loaded.zero_counts([3, 1, 2]).tolist() == counts
        assert [loaded.freq(j) for j in (3, 1, 2)] == [EmpiricalFreq(c, k) for c in counts]
        assert 2 in loaded.bits and 4 not in loaded.bits and len(loaded.bits) == 3
        for j in bits:
            assert loaded.bits[j].dtype == np.uint8 and loaded.bits[j].shape == (k,)
            np.testing.assert_array_equal(loaded.bits[j], bits[j])


@pytest.mark.parametrize(
    "seed, trial",
    [(7, -1), (7, 1 << 64), (7, (1 << 64) + 3), (np.int64(7), np.int64(-3)), (-5, 2)],
)
def test_dataset_stores_the_trial_index_as_the_streams_key_it(seed, trial, tmp_path):
    """A seed or trial index outside [0, 2^64), or a numpy integer, is kept
    mod 2^64 as a Python int, the word the random streams key it by, so the
    dataset loads back equal and the loaded header redraws the same bits."""
    scenario, assignment = build_paper_setup(0.04)
    path = tmp_path / "trial.bits"
    data = generate_dataset(scenario, assignment, 16, seed, trial)
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert loaded == data
    expected = (int(seed) % (1 << 64), int(trial) % (1 << 64))
    for stored in (data, loaded):
        assert (stored.rng_seed, stored.trial_index) == expected
        assert type(stored.rng_seed) is int and type(stored.trial_index) is int
    redrawn = generate_dataset(scenario, assignment, 16, loaded.rng_seed, loaded.trial_index)
    for j in loaded.bits:
        np.testing.assert_array_equal(redrawn.bits[j], loaded.bits[j])


def test_dataset_error_paths(tmp_path):
    rng = np.random.default_rng(4)
    bits = {1: rng.integers(0, 2, size=16).astype(np.uint8)}
    data = QuantizedDataset(bits=bits, k=16, rng_seed=0, trial_index=0)
    path = tmp_path / "trial.bits"
    save_dataset(data, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bits"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ParseError, match="magic"):
        load_dataset(bad_magic)

    truncated = tmp_path / "truncated.bits"
    truncated.write_bytes(raw[:-1])
    with pytest.raises(ParseError, match="truncated"):
        load_dataset(truncated)

    trailing = tmp_path / "trailing.bits"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(ParseError, match="trailing"):
        load_dataset(trailing)


def test_dataset_shorter_than_header(tmp_path):
    short = tmp_path / "short.bits"
    short.write_bytes(b"QDS1\x00\x00")
    with pytest.raises(ParseError, match="6 bytes, shorter than the 36-byte header"):
        load_dataset(short)


def test_dataset_zero_k_header(tmp_path):
    path = tmp_path / "zero_k.bits"
    path.write_bytes(b"QDS1" + np.array([0, 0, 0, 0], dtype="<u8").tobytes())
    with pytest.raises(ParseError, match=r"field K \(byte offset 4\) is 0"):
        load_dataset(path)


def test_dataset_repeated_sensor_id(tmp_path):
    bits = {1: np.ones(8, dtype=np.uint8), 2: np.zeros(8, dtype=np.uint8)}
    path = tmp_path / "trial.bits"
    save_dataset(QuantizedDataset(bits=bits, k=8, rng_seed=0, trial_index=0), path)
    raw = bytearray(path.read_bytes())
    # the second record starts after the header and the first 8 + 1 bytes
    raw[45:53] = np.array([1], dtype="<i8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="sensor id 1 at byte offset 45 repeats"):
        load_dataset(path)


_HEADER_BYTES = 36


@st.composite
def _datasets(draw):
    k = draw(st.integers(1, 40))
    ids = draw(st.sets(st.integers(-(1 << 63), (1 << 63) - 1), max_size=4))
    bits = {
        sid: np.array(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)), dtype=np.uint8)
        for sid in ids
    }
    return QuantizedDataset(
        bits=bits,
        k=k,
        rng_seed=draw(st.integers(0, (1 << 64) - 1)),
        trial_index=draw(st.integers(0, (1 << 64) - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(data=_datasets())
def test_dataset_round_trips_byte_identically_and_rejects_prefixes(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("qds1") / "trial.bits"
    save_dataset(data, path)
    raw = path.read_bytes()
    loaded = load_dataset(path)
    save_dataset(loaded, path)
    assert path.read_bytes() == raw
    for sid, arr in data.bits.items():
        np.testing.assert_array_equal(loaded.bits[sid], arr)

    for end in range(_HEADER_BYTES, len(raw)):
        path.write_bytes(raw[:end])
        with pytest.raises(ParseError, match=r"truncated .* byte offset \d+"):
            load_dataset(path)


def test_dataset_rejects_nonzero_padding_bits(tmp_path):
    k = 13  # three padding bits in each record's second byte
    bits = {1: np.zeros(k, dtype=np.uint8), 2: np.ones(k, dtype=np.uint8)}
    path = tmp_path / "trial.bits"
    save_dataset(QuantizedDataset(bits=bits, k=k, rng_seed=0, trial_index=0), path)
    raw = path.read_bytes()
    # record 2 starts after the header and record 1's 8 + 2 bytes
    for bit in range(3):
        bad = bytearray(raw)
        bad[_HEADER_BYTES + 10 + 9] |= 1 << bit
        path.write_bytes(bytes(bad))
        with pytest.raises(
            ParseError,
            match=r"sensor id 2 at byte offset 46 has nonzero padding bits in byte offset 55",
        ):
            load_dataset(path)
    # the last K bit is data, not padding
    flipped = bytearray(raw)
    flipped[_HEADER_BYTES + 9] |= 1 << 3
    path.write_bytes(bytes(flipped))
    assert load_dataset(path).bits[1][k - 1] == 1


# -- the one-pass decoder against the per-record reference loop -------------


def _reference_load(path):
    """The per-record QDS1 decoder that ``load_dataset`` replaced.

    Kept as the oracle: it walks the records in file order and reports the
    first fault it meets.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != b"QDS1":
        raise ParseError(f"{path}: not a dataset file (bad magic {raw[:4]!r})")
    if len(raw) < _HEADER_BYTES:
        raise ParseError(
            f"{path}: {len(raw)} bytes, shorter than the {_HEADER_BYTES}-byte header"
        )
    header = np.frombuffer(raw, dtype="<u8", count=4, offset=4)
    k, n_sensors, seed, trial = (int(v) for v in header)
    if k == 0:
        raise ParseError(f"{path}: header field K (byte offset 4) is 0, need K >= 1")
    packed_len = (k + 7) // 8
    padding_mask = (1 << (-k % 8)) - 1
    offset = _HEADER_BYTES
    bits = {}
    for i in range(n_sensors):
        if offset + 8 + packed_len > len(raw):
            raise ParseError(
                f"{path}: truncated dataset file: record {i} at byte offset "
                f"{offset} needs {8 + packed_len} bytes, {len(raw) - offset} remain"
            )
        sid = int(np.frombuffer(raw, dtype="<i8", count=1, offset=offset)[0])
        if sid in bits:
            raise ParseError(
                f"{path}: sensor id {sid} at byte offset {offset} repeats an earlier record"
            )
        last = offset + 8 + packed_len - 1
        if raw[last] & padding_mask:
            raise ParseError(
                f"{path}: sensor id {sid} at byte offset {offset} has nonzero "
                f"padding bits in byte offset {last}"
            )
        offset += 8
        packed = np.frombuffer(raw, dtype=np.uint8, count=packed_len, offset=offset)
        offset += packed_len
        bits[sid] = np.unpackbits(packed)[:k]
    if offset != len(raw):
        raise ParseError(
            f"{path}: {len(raw) - offset} trailing bytes from byte offset {offset}"
        )
    return QuantizedDataset(bits=bits, k=k, rng_seed=seed, trial_index=trial)


def _qds1(k, records, n_sensors=None, seed=0, trial=0):
    """A QDS1 file body from (id, packed bytes) records, in the given order."""
    n = len(records) if n_sensors is None else n_sensors
    out = b"QDS1" + np.array([k, n, seed, trial], dtype="<u8").tobytes()
    for sid, packed in records:
        out += np.array([sid], dtype="<i8").tobytes() + bytes(packed)
    return out


def _outcome(load, path):
    try:
        data = load(path)
    except ParseError as exc:
        return str(exc)
    return (
        data.k,
        data.rng_seed,
        data.trial_index,
        [(sid, arr.dtype.str, arr.tolist()) for sid, arr in data.bits.items()],
        [data.freq(sid).zeros for sid in data.bits],
    )


_FAULTS = ("none", "repeat", "padding", "both")


@st.composite
def _files(draw):
    """Well-formed files with ids in any order, and ones broken every way.

    A broken file gives each record a fault (a repeated id, nonzero
    padding, both or none), may misstate the record count, and may be cut
    short or run on.
    """
    k = draw(st.integers(1, 40))
    n = draw(st.integers(0, 4))
    broken = draw(st.booleans())
    faults = ["none"] * n
    if broken:
        faults = draw(st.lists(st.sampled_from(_FAULTS), min_size=n, max_size=n))
    ids, records = [], []
    for fault in faults:
        if fault in ("repeat", "both") and ids:
            sid = draw(st.sampled_from(ids))
        else:
            sid = draw(st.integers(-(1 << 63), (1 << 63) - 1).filter(lambda x: x not in ids))
        bits = np.array(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)), dtype=np.uint8)
        packed = bytearray(np.packbits(bits).tobytes())
        if fault in ("padding", "both") and k % 8:
            packed[-1] |= draw(st.integers(1, (1 << (-k % 8)) - 1))
        ids.append(sid)
        records.append((sid, packed))
    n_header = draw(st.integers(0, 5)) if broken and draw(st.booleans()) else n
    raw = _qds1(k, records, n_header, seed=draw(st.integers(0, (1 << 64) - 1)))
    if broken and draw(st.booleans()):
        cut = draw(st.integers(1, 12))
        raw = raw[:-cut] if draw(st.booleans()) else raw + bytes(cut)
    return raw


@settings(max_examples=500, deadline=None)
@given(raw=_files())
def test_one_pass_decoder_matches_the_reference_loop(raw, tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "trial.bits"
    path.write_bytes(raw)
    assert _outcome(load_dataset, path) == _outcome(_reference_load, path)


@pytest.mark.parametrize(
    "records, cut, message",
    [
        # bad padding at record 0, a repeat at record 1
        ([(5, b"\x01"), (5, b"\x00"), (6, b"\x00")], 0,
         "sensor id 5 at byte offset 36 has nonzero padding bits in byte offset 44"),
        # a repeat at record 1, record 2 truncated
        ([(1, b"\x00"), (1, b"\x00"), (2, b"\x00")], 1,
         "sensor id 1 at byte offset 45 repeats"),
        # a repeat at record 1, bad padding at record 2
        ([(1, b"\x00"), (1, b"\x00"), (2, b"\x01")], 0,
         "sensor id 1 at byte offset 45 repeats"),
        # record 1 both repeats and has bad padding
        ([(1, b"\x00"), (1, b"\x01")], 0, "sensor id 1 at byte offset 45 repeats"),
        # repeats at records 2 and 3
        ([(3, b"\x00"), (4, b"\x00"), (4, b"\x00"), (3, b"\x00")], 0,
         "sensor id 4 at byte offset 54 repeats"),
    ],
)
def test_the_first_bad_record_in_file_order_is_named(tmp_path, records, cut, message):
    # K = 4: the low four bits of each record's one byte are padding
    path = tmp_path / "trial.bits"
    raw = _qds1(4, records)
    path.write_bytes(raw[: len(raw) - cut])
    with pytest.raises(ParseError, match=re.escape(message)):
        load_dataset(path)
    assert _outcome(_reference_load, path) == _outcome(load_dataset, path)


@pytest.mark.parametrize("k, n_sensors", [(16, 1 << 62), (1 << 62, 1), (1 << 62, 1 << 62)])
def test_a_huge_header_is_a_truncation_without_a_large_allocation(tmp_path, k, n_sensors):
    path = tmp_path / "trial.bits"
    path.write_bytes(_qds1(k, [(1, bytes(2))], n_sensors))
    needs = 8 + (k + 7) // 8
    tracemalloc.start()
    try:
        with pytest.raises(
            ParseError,
            match=rf"truncated dataset file: record {1 if k == 16 else 0} at byte "
            rf"offset \d+ needs {needs} bytes",
        ):
            load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "k, n_sensors, body",
    [
        ((1 << 64) - 1, 0, b""),
        (1 << 62, 0, b""),
        ((1 << 64) - 1, 3, bytes(40)),
        (8, (1 << 64) - 1, bytes(27)),
    ],
)
def test_extreme_headers_match_the_reference_loop(tmp_path, k, n_sensors, body):
    path = tmp_path / "trial.bits"
    path.write_bytes(_qds1(k, [], n_sensors) + body)
    assert _outcome(load_dataset, path) == _outcome(_reference_load, path)


def test_loaded_dataset_equals_its_in_memory_source(tmp_path):
    rng = np.random.default_rng(5)
    k = 13
    bits = {j: rng.integers(0, 2, size=k).astype(np.uint8) for j in (4, 1, 9)}
    data = QuantizedDataset(bits=bits, k=k, rng_seed=(1 << 63) + 5, trial_index=7)
    path = tmp_path / "trial.bits"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert loaded == data and data == loaded and loaded == load_dataset(path)
    assert not (loaded != data)
    # records compare by value, so 0/1 booleans in another id order match too
    as_bool = {j: bits[j].astype(bool) for j in (9, 4, 1)}
    assert loaded == QuantizedDataset(bits=as_bool, k=k, rng_seed=data.rng_seed, trial_index=7)

    def variant(bits=bits, k=k, rng_seed=data.rng_seed, trial_index=7):
        return QuantizedDataset(bits=bits, k=k, rng_seed=rng_seed, trial_index=trial_index)

    flipped = {**bits, 9: 1 - bits[9]}
    longer = {j: np.append(b, np.uint8(0)) for j, b in bits.items()}
    for other in (
        variant(rng_seed=5),
        variant(trial_index=0),
        variant(bits={j: bits[j] for j in (4, 1)}),
        variant(bits={**bits, 2: bits[1]}),
        variant(bits=flipped),
        variant(bits=longer, k=k + 1),
    ):
        assert loaded != other and other != loaded and data != other
    assert data != bits and loaded != "trial.bits"
    for unhashable in (data, loaded):
        with pytest.raises(TypeError):
            hash(unhashable)


@pytest.mark.parametrize("k", [1 << 63, (1 << 64) - 1])
def test_zero_counts_of_no_ids_leave_a_huge_k_alone(tmp_path, k):
    path = tmp_path / "trial.bits"
    path.write_bytes(_qds1(k, []))
    loaded = load_dataset(path)
    assert loaded.k == k and isinstance(loaded.bits, PackedBits)
    for data in (loaded, QuantizedDataset(bits={}, k=k, rng_seed=0)):
        counts = data.zero_counts([])
        assert counts.dtype == np.int64 and counts.shape == (0,)


# -- the golden detection tables through the container ----------------------


@pytest.mark.parametrize("scale", ["0.04", "1"])
def test_golden_detect_tables_survive_the_container(scale, tmp_path):
    """The trial ``quantloc detect`` draws, saved and loaded, detects the same.

    The committed golden tables come from ``quantloc detect`` on the paper
    setup at delta = 280, K = 1e4 and seed 7; the same trial, read back
    from its QDS1 file, must give the same table byte for byte.
    """
    scenario, assignment = build_paper_setup(scale=float(scale))
    data = generate_dataset(scenario, assignment, 10000, 7, trial_index=0)
    path = tmp_path / "trial.bits"
    save_dataset(data, path)
    loaded = load_dataset(path)
    report = detect_all(scenario, DetectorConfig(delta=280.0), loaded)
    # the packed records decide as the in-memory ones do, by either method
    discretized = DetectorConfig(delta=280.0, method="discretized", m_points=4096)
    for cfg in (DetectorConfig(delta=280.0), discretized):
        assert detect_all(scenario, cfg, loaded) == detect_all(scenario, cfg, data)
    golden = Path(__file__).parent / "data" / f"detect_scale{scale}_seed7_K10000_delta280.tsv"
    assert report.to_table().encode() == golden.read_bytes()


def test_committed_trial_detects_as_pinned():
    """A detector pin that no random stream can move.

    The trial was drawn once (1/25-scale paper setup, K = 1e4, seed 7,
    trial 0) by the Philox streams the package used before SFC64, and saved
    as QDS1; its table is what ``quantloc detect`` printed for it then.
    """
    data_dir = Path(__file__).parent / "data"
    scenario, _ = build_paper_setup(scale=0.04)
    loaded = load_dataset(data_dir / "trial_scale0.04_seed7_K10000_philox.bits")
    assert (loaded.k, loaded.rng_seed, loaded.trial_index) == (10000, 7, 0)
    report = detect_all(scenario, DetectorConfig(delta=280.0), loaded)
    expected = data_dir / "trial_scale0.04_seed7_K10000_philox_delta280.tsv"
    assert report.to_table().encode() == expected.read_bytes()


def test_committed_trial_detects_as_pinned_by_the_discretized_walk():
    """The discretized walk at M = 2e5 on the committed trial: its table,
    written by the walk that bounded fixed chunks and blocks, byte for byte."""
    data_dir = Path(__file__).parent / "data"
    scenario, _ = build_paper_setup(scale=0.04)
    loaded = load_dataset(data_dir / "trial_scale0.04_seed7_K10000_philox.bits")
    cfg = DetectorConfig(delta=280.0, method="discretized", m_points=200_000)
    report = detect_all(scenario, cfg, loaded)
    expected = data_dir / "trial_scale0.04_seed7_K10000_philox_delta280_discretized.tsv"
    assert report.to_table().encode() == expected.read_bytes()
