"""Scenario, attack, and dataset serialization, plus the benchmark preset.

Scenario files are JSON with a fixed key order, so identical inputs write
identical bytes.  Sensors may be listed explicitly or generated by a
linspace block; attacks are entries of sensor ids (or an inclusive id
range) with a variant name and its parameters.  Bit records use a small
binary container: a magic tag, record geometry, then each sensor's bits
packed eight to the byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Collection, Mapping

import numpy as np

from .attacks import AttackAssignment, AttackSpec, Mima, NoAttack, PsiOffset, SpoofBias
from .errors import DomainError, InvalidScenario, ParseError
from .measurement import PackedBits, QuantizedDataset
from .noise import GaussianNoise, is_finite, shown
from .scenario import Point, RoiDisc, ScenarioConfig, SensorSpec

__all__ = [
    "SCHEMA_VERSION",
    "load_scenario",
    "save_scenario",
    "parse_scenario",
    "render_scenario",
    "build_paper_setup",
    "save_dataset",
    "load_dataset",
]

SCHEMA_VERSION = 1

DATASET_MAGIC = b"QDS1"
# The magic tag, then four uint64 header fields: K, sensor count, seed, trial.
_HEADER_END = 4 + 32


# -- parsing helpers --------------------------------------------------------


def _get(obj: Mapping[str, Any], key: str, path: str) -> Any:
    if not isinstance(obj, Mapping):
        raise ParseError(f"{path}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"{path}: missing required field {key!r}")
    return obj[key]


def _known_fields(obj: Any, names: Collection[str], path: str) -> Mapping[str, Any]:
    """``obj`` as a JSON object whose keys are all among ``names``."""
    if not isinstance(obj, Mapping):
        raise ParseError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in names:
            raise ParseError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")
    return obj


class _LongLiteral:
    """What ``parse_scenario`` reads a JSON integer of more digits than
    ``int`` converts (4,300 by default) as: no field accepts it, and its
    message gives its length, not its digits."""

    def __init__(self, text: str) -> None:
        self.digits = len(text.lstrip("-"))

    def __repr__(self) -> str:
        return f"a literal of {self.digits} digits, too long to read"


def _json_int(text: str) -> int | _LongLiteral:
    try:
        return int(text)
    except ValueError:
        return _LongLiteral(text)


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    if not is_finite(value):
        raise ParseError(f"{path}: expected a finite number, got {shown(value)}")
    return float(value)


def _positive(value: Any, path: str) -> float:
    out = _number(value, path)
    if not out > 0.0:
        raise ParseError(f"{path}: must be positive, got {value!r}")
    return out


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{path}: expected true or false, got {value!r}")
    return value


def _point(value: Any, path: str) -> Point:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParseError(f"{path}: expected [x, y], got {value!r}")
    return Point(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _noise(value: Any, path: str) -> GaussianNoise:
    kind = _get(_known_fields(value, ("kind", "location", "scale"), path), "kind", path)
    if kind == "gaussian":
        return GaussianNoise(
            location=_number(value.get("location", 0.0), f"{path}.location"),
            scale=_positive(value.get("scale", 1.0), f"{path}.scale"),
        )
    raise ParseError(f"{path}.kind: unknown noise model {kind!r}")


def _noise_dict(noise: GaussianNoise) -> dict[str, Any]:
    return {"kind": "gaussian", "location": noise.location, "scale": noise.scale}


_LINSPACE_FIELDS = ("first_id", "count", "start", "stop", "include_start", "include_stop")


def _linspace_block(block: Any, path: str) -> list[float]:
    block = _known_fields(block, _LINSPACE_FIELDS, path)
    count = _integer(_get(block, "count", path), f"{path}.count")
    if count < 1:
        raise ParseError(f"{path}.count: must be >= 1, got {count}")
    start = _number(_get(block, "start", path), f"{path}.start")
    stop = _number(_get(block, "stop", path), f"{path}.stop")
    include_start = _boolean(block.get("include_start", True), f"{path}.include_start")
    include_stop = _boolean(block.get("include_stop", True), f"{path}.include_stop")
    extra = 2 - int(include_start) - int(include_stop)
    xs = np.linspace(start, stop, count + extra)
    if not include_start:
        xs = xs[1:]
    if not include_stop:
        xs = xs[:-1]
    return [float(x) for x in xs]


_SENSOR_FIELDS = ("id", "position", "secure", "threshold", "noise")
_LINSPACE_ENTRY_FIELDS = ("linspace", "y", "threshold", "noise")


def _parse_sensors(
    entries: Any,
    default_threshold: float,
    default_noise: GaussianNoise,
) -> tuple[SensorSpec, ...]:
    if not isinstance(entries, list) or not entries:
        raise ParseError("sensors: expected a nonempty list")
    sensors: list[SensorSpec] = []
    seen: set[int] = set()

    def add(sensor: SensorSpec, id_path: str) -> None:
        if sensor.id in seen:
            raise ParseError(f"{id_path}: sensor id {sensor.id} repeats an earlier sensor")
        seen.add(sensor.id)
        sensors.append(sensor)

    for i, entry in enumerate(entries):
        path = f"sensors[{i}]"
        if not isinstance(entry, Mapping):
            raise ParseError(f"{path}: expected an object, got {entry!r}")
        names = _LINSPACE_ENTRY_FIELDS if "linspace" in entry else _SENSOR_FIELDS
        _known_fields(entry, names, path)
        threshold = _number(entry.get("threshold", default_threshold), f"{path}.threshold")
        noise = (
            _noise(entry["noise"], f"{path}.noise")
            if "noise" in entry
            else default_noise
        )
        if "linspace" in entry:
            xs = _linspace_block(entry["linspace"], f"{path}.linspace")
            y = _number(entry.get("y", 0.0), f"{path}.y")
            first_id = _integer(
                _get(entry["linspace"], "first_id", f"{path}.linspace"),
                f"{path}.linspace.first_id",
            )
            for offset, x in enumerate(xs):
                add(
                    SensorSpec(first_id + offset, Point(x, y), threshold, noise),
                    f"{path}.linspace.first_id",
                )
        else:
            add(
                SensorSpec(
                    id=_integer(_get(entry, "id", path), f"{path}.id"),
                    position=_point(_get(entry, "position", path), f"{path}.position"),
                    threshold=threshold,
                    noise=noise,
                    secure=_boolean(entry.get("secure", False), f"{path}.secure"),
                ),
                f"{path}.id",
            )
    return tuple(sensors)


def _attack_ids(value: Any, path: str) -> list[int]:
    if isinstance(value, list):
        return [_integer(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, Mapping) and "range" in value:
        rng = value["range"]
        if not (isinstance(rng, list) and len(rng) == 2):
            raise ParseError(f"{path}.range: expected [lo, hi], got {rng!r}")
        lo = _integer(rng[0], f"{path}.range[0]")
        hi = _integer(rng[1], f"{path}.range[1]")
        if hi < lo:
            raise ParseError(f"{path}.range: hi {hi} below lo {lo}")
        return list(range(lo, hi + 1))
    raise ParseError(f"{path}: expected an id list or a range object, got {value!r}")


_VARIANTS: dict[str, type[AttackSpec]] = {
    cls.variant: cls for cls in (NoAttack, Mima, PsiOffset, SpoofBias)
}


def _param_names(variant: str) -> list[str]:
    """A variant's JSON params: its dataclass fields, in declaration order."""
    return [f.name for f in fields(_VARIANTS[variant])]


def _attack_spec(variant: Any, params: Any, path: str) -> AttackSpec:
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ParseError(f"{path}.variant: unknown attack variant {variant!r}")
    if not isinstance(params, Mapping):
        raise ParseError(f"{path}.params: expected an object, got {params!r}")
    names = _param_names(variant)
    for key in params:
        if key not in names:
            raise ParseError(
                f"{path}.params.{key}: unknown parameter for variant {variant!r}"
            )
    values = {
        name: _number(_get(params, name, f"{path}.params"), f"{path}.params.{name}")
        for name in names
    }
    try:
        return _VARIANTS[variant](**values)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_attacks(entries: Any) -> AttackAssignment:
    if entries is None:
        return AttackAssignment(specs={})
    if not isinstance(entries, list):
        raise ParseError("attacks: expected a list")
    specs: dict[int, AttackSpec] = {}
    for i, entry in enumerate(entries):
        path = f"attacks[{i}]"
        if not isinstance(entry, Mapping):
            raise ParseError(f"{path}: expected an object, got {entry!r}")
        _known_fields(entry, ("ids", "variant", "params"), path)
        ids = _attack_ids(_get(entry, "ids", path), f"{path}.ids")
        variant = _get(entry, "variant", path)
        spec = _attack_spec(variant, entry.get("params", {}), path)
        for j in ids:
            if j in specs:
                raise ParseError(f"{path}: sensor {j} already has an attack entry")
            specs[j] = spec
    return AttackAssignment(specs=specs)


_DOCUMENT_FIELDS = (
    "schema_version", "constants", "roi", "target", "noise_default",
    "threshold_default", "sensors", "attacks",
)
# Each constant (a float field of ScenarioConfig), in field order, with its
# default; MISSING marks a required one.
_CONSTANTS = {f.name: f.default for f in fields(ScenarioConfig) if f.type == "float"}


def parse_scenario(text: str) -> tuple[ScenarioConfig, AttackAssignment]:
    """Parse a scenario document; raises ParseError with a field path."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    version = _integer(_get(doc, "schema_version", "document"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    _known_fields(doc, _DOCUMENT_FIELDS, "")
    constants = _known_fields(_get(doc, "constants", "document"), _CONSTANTS, "constants")
    default_noise = _noise(
        doc.get("noise_default", {"kind": "gaussian"}), "noise_default"
    )
    default_threshold = _number(doc.get("threshold_default", 1.0), "threshold_default")
    sensors = _parse_sensors(
        _get(doc, "sensors", "document"), default_threshold, default_noise
    )
    roi_obj = _known_fields(_get(doc, "roi", "document"), ("center", "radius"), "roi")
    roi = RoiDisc(
        center=_point(_get(roi_obj, "center", "roi"), "roi.center"),
        radius=_positive(_get(roi_obj, "radius", "roi"), "roi.radius"),
    )
    values = {}
    for name, default in _CONSTANTS.items():
        raw = _get(constants, name, "constants") if default is MISSING else constants.get(name, default)
        values[name] = _positive(raw, f"constants.{name}")
    try:
        scenario = ScenarioConfig(
            sensors=sensors,
            roi=roi,
            target=_point(_get(doc, "target", "document"), "target"),
            **values,
        )
    except (DomainError, InvalidScenario) as exc:
        raise ParseError(f"scenario invalid: {exc}") from exc
    assignment = _parse_attacks(doc.get("attacks"))
    try:
        assignment.validate_against(scenario)
    except InvalidScenario as exc:
        raise ParseError(f"attacks invalid: {exc}") from exc
    return scenario, assignment


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, AttackAssignment]:
    return parse_scenario(Path(path).read_text())


def _sensor_dict(
    sensor: SensorSpec, default_threshold: float, default_noise: GaussianNoise
) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "id": sensor.id,
        "position": [sensor.position.x, sensor.position.y],
    }
    if sensor.threshold != default_threshold:
        entry["threshold"] = sensor.threshold
    if sensor.noise != default_noise:
        entry["noise"] = _noise_dict(sensor.noise)
    if sensor.secure:
        entry["secure"] = True
    return entry


def _spec_entry(ids: list[int], spec: AttackSpec) -> dict[str, Any]:
    contiguous = ids == list(range(ids[0], ids[-1] + 1)) and len(ids) > 1
    entry: dict[str, Any] = {
        "ids": {"range": [ids[0], ids[-1]]} if contiguous else ids,
        "variant": spec.variant,
    }
    params = {name: getattr(spec, name) for name in _param_names(spec.variant)}
    if params:
        entry["params"] = params
    return entry


def render_scenario(s: ScenarioConfig, assignment: AttackAssignment | None = None) -> str:
    """Serialize to the scenario JSON format with a stable key order."""
    default_threshold = s.sensors[0].threshold
    default_noise = s.sensors[0].noise
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "constants": {name: getattr(s, name) for name in _CONSTANTS},
        "roi": {"center": [s.roi.center.x, s.roi.center.y], "radius": s.roi.radius},
        "target": [s.target.x, s.target.y],
        "noise_default": _noise_dict(default_noise),
        "threshold_default": default_threshold,
        "sensors": [
            _sensor_dict(sensor, default_threshold, default_noise)
            for sensor in s.sensors
        ],
    }
    if assignment is not None and assignment.specs:
        groups: dict[AttackSpec, list[int]] = {}
        for j, spec in sorted(assignment.specs.items()):
            groups.setdefault(spec, []).append(j)
        doc["attacks"] = [_spec_entry(ids, spec) for spec, ids in groups.items()]
    return json.dumps(doc, indent=2) + "\n"


def save_scenario(
    s: ScenarioConfig,
    path: str | Path,
    assignment: AttackAssignment | None = None,
) -> None:
    Path(path).write_text(render_scenario(s, assignment))


# -- benchmark preset -------------------------------------------------------


def build_paper_setup(
    scale: float = 1.0, psi1: float = 0.0105
) -> tuple[ScenarioConfig, AttackAssignment]:
    """The benchmark network: two sensor groups flanked by secure anchors.

    At full scale, 500 sensors sit on the x axis in two groups of 250.
    Together with its secure anchor, each group is evenly spaced across
    its 100-unit span: the left group shares the anchor at (-1000, 0) and
    runs to (-900, 0); the right group runs from (900, 0) to its anchor
    at (1000, 0).  The target sits at (0, 1e5), the center of the ROI
    disc of radius 7500.  The whole left group is bit-flip attacked with
    flip probability psi1 on ones.

    scale shrinks both groups (it never touches K or the geometry):
    scale = 1/25 gives 10 sensors per group, re-spaced evenly.
    """
    if not (0.0 < scale <= 1.0):
        raise DomainError(f"scale must lie in (0, 1], got {scale}")
    n_half_float = 250.0 * scale
    n_half = round(n_half_float)
    if n_half < 1 or not math.isclose(n_half_float, n_half, abs_tol=1e-9):
        raise DomainError(
            f"scale {scale} puts {n_half_float} sensors in each group; "
            "need a positive whole number"
        )
    n = 2 * n_half
    noise = GaussianNoise(location=0.0, scale=1.0)
    sensors: list[SensorSpec] = []
    left = np.linspace(-1000.0, -900.0, n_half + 1)[1:]
    right = np.linspace(900.0, 1000.0, n_half + 1)[:-1]
    for offset, x in enumerate(left):
        sensors.append(
            SensorSpec(1 + offset, Point(float(x), 0.0), 1.0, noise, secure=False)
        )
    for offset, x in enumerate(right):
        sensors.append(
            SensorSpec(
                n_half + 1 + offset, Point(float(x), 0.0), 1.0, noise, secure=False
            )
        )
    sensors.append(SensorSpec(n + 1, Point(-1000.0, 0.0), 1.0, noise, secure=True))
    sensors.append(SensorSpec(n + 2, Point(1000.0, 0.0), 1.0, noise, secure=True))
    scenario = ScenarioConfig(
        sensors=tuple(sensors),
        roi=RoiDisc(center=Point(0.0, 1e5), radius=7500.0),
        target=Point(0.0, 1e5),
        p0=1.0,
        d0=1e5,
        gamma=2.0,
    )
    attack = Mima(psi0=0.0, psi1=psi1)
    assignment = AttackAssignment(specs={j: attack for j in range(1, n_half + 1)})
    return scenario, assignment


# -- dataset container ------------------------------------------------------


def save_dataset(data: QuantizedDataset, path: str | Path) -> None:
    """Write bit records in the packed binary container."""
    ids = sorted(data.bits)
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        header = np.array([data.k, len(ids), data.rng_seed, data.trial_index], dtype="<u8")
        fh.write(header.tobytes())
        for sid in ids:
            fh.write(np.array([sid], dtype="<i8").tobytes())
            fh.write(np.packbits(data.bits[sid]).tobytes())


def load_dataset(path: str | Path) -> QuantizedDataset:
    """Read a packed dataset file, checking every record in one pass.

    The header is checked first, and the records the file actually holds
    are counted before anything is sized from the header's K or sensor
    count.  The whole records then form one byte matrix, one row per
    record: the ids, repeats and padding each take one vectorized step.
    The bits stay packed (``PackedBits``): zero counts come from one
    popcount of the matrix, and a record unpacks only when read.  Of
    several bad records the first in file order is reported; within a
    record a truncation comes before a repeated id, and that before
    nonzero padding.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != DATASET_MAGIC:
        raise ParseError(
            f"{path}: not a dataset file (bad magic {raw[:4]!r})"
        )
    if len(raw) < _HEADER_END:
        raise ParseError(
            f"{path}: {len(raw)} bytes, shorter than the {_HEADER_END}-byte header"
        )
    header = np.frombuffer(raw, dtype="<u8", count=4, offset=4)
    k, n_sensors, seed, trial = (int(v) for v in header)
    if k == 0:
        raise ParseError(f"{path}: header field K (byte offset 4) is 0, need K >= 1")
    width = 8 + (k + 7) // 8
    n = min(n_sensors, (len(raw) - _HEADER_END) // width)
    records = np.frombuffer(
        raw, dtype=np.uint8, count=n * width, offset=_HEADER_END
    ).reshape(n, width)
    ids = records[:, :8].view("<i8")[:, 0]
    # Records that repeat an earlier id, and records with nonzero bits past
    # K in their last byte (save_dataset writes those as 0).
    first = np.zeros(n, dtype=bool)
    first[np.unique(ids, return_index=True)[1]] = True
    repeats = np.flatnonzero(~first)
    bad_padding = np.flatnonzero(records[:, -1] & ((1 << (-k % 8)) - 1))
    # The first bad record; record n is the truncated one when n < n_sensors.
    i = min(int(bad[0]) if bad.size else n for bad in (repeats, bad_padding))
    offset = _HEADER_END + i * width
    if i == n < n_sensors:
        raise ParseError(
            f"{path}: truncated dataset file: record {i} at byte offset "
            f"{offset} needs {width} bytes, {len(raw) - offset} remain"
        )
    if i in repeats:
        raise ParseError(
            f"{path}: sensor id {ids[i]} at byte offset {offset} repeats an earlier record"
        )
    if i < n:
        raise ParseError(
            f"{path}: sensor id {ids[i]} at byte offset {offset} has nonzero "
            f"padding bits in byte offset {offset + width - 1}"
        )
    if offset != len(raw):
        raise ParseError(
            f"{path}: {len(raw) - offset} trailing bytes from byte offset {offset}"
        )
    return QuantizedDataset(
        bits=PackedBits(ids.tolist(), records[:, 8:], k), k=k, rng_seed=seed, trial_index=trial
    )
