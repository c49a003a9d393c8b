"""On-disk formats: JSON matrices, parameter files and fit reports, CSV count tables and dips.

Matrices are stored with separate real and imaginary parts so the files
stay human-diffable; floats pass through Python's shortest round-trip
repr, which makes serialize/parse bit-exact for finite doubles and the
byte output deterministic. Count tables are plain CSV with one row per
(input, projector) pair; lines starting with ``#`` are comments. A JSON
file that would hold NaN or infinity is refused before it is opened.
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np

from .bases import BASIS_KINDS
from .bsfilter import FilterParams, decoherence_from_delay
from .channel import ProcessMatrix
from .tomography import CountTable

log = logging.getLogger("bsqpt")

STATE_TAG = "state"


class FileFormatError(ValueError):
    """Input file failed validation."""


def _write_json(path: str, payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise FileFormatError(f"{path}: not written, it would hold NaN or infinity") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_matrix(path: str, m: np.ndarray, basis: str) -> None:
    m = np.asarray(m, dtype=complex)
    _write_json(path, {
        "dim": int(m.shape[0]),
        "basis": basis,
        "re": [[float(v) for v in row] for row in m.real],
        "im": [[float(v) for v in row] for row in m.imag],
    })


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_json_object(path: str) -> dict:
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return payload


def read_matrix(path: str) -> tuple[str, np.ndarray]:
    """Parse a matrix file, returning ``(basis_tag, matrix)``."""
    payload = _read_json_object(path)
    for key in ("dim", "basis", "re", "im"):
        if key not in payload:
            raise FileFormatError(f"{path}: missing key {key!r}")
    dim = payload["dim"]
    basis = payload["basis"]
    if basis not in BASIS_KINDS and basis != STATE_TAG:
        raise FileFormatError(f"{path}: unknown basis tag {basis!r}")
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: matrix entries are not numbers") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise FileFormatError(f"{path}: re/im shapes do not match dim={dim}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise FileFormatError(f"{path}: non-finite matrix entry (NaN or infinity)")
    return basis, re + 1j * im


def read_process_matrix(path: str) -> ProcessMatrix:
    """Parse a process-matrix file: a 16x16 Hermitian matrix under an operator-basis tag."""
    basis, m = read_matrix(path)
    if basis == STATE_TAG or m.shape != (16, 16):
        raise FileFormatError(f"{path}: expected a 16x16 process matrix")
    if np.max(np.abs(m - m.conj().T)) > 1e-8 * np.max(np.abs(m)):
        raise FileFormatError(f"{path}: process matrix is not Hermitian")
    return ProcessMatrix(basis, m)


def write_counts(path: str, table: CountTable) -> None:
    lines = ["# coincidence count table", f"# total_scale = {float(table.total_scale)!r}"]
    if table.noise_seed is not None:
        lines.append(f"# noise_seed = {int(table.noise_seed)!r}")
    lines.append("input_index,projector_index,count")
    for i in range(16):
        for j in range(16):
            lines.append(f"{i},{j},{float(table.counts[i, j])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_counts(path: str) -> CountTable:
    """Parse a count CSV, requiring all 256 (input, projector) pairs once each."""
    counts = np.full((16, 16), np.nan)
    total_scale = 1.0
    lines = _read_text(path).splitlines()
    data_lines = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if "total_scale" in stripped and "=" in stripped:
                text = stripped.split("=", 1)[1].strip()
                try:
                    total_scale = float(text)
                except ValueError:
                    raise FileFormatError(f"{path}: unparsable total_scale {text!r}") from None
                if not (math.isfinite(total_scale) and total_scale > 0.0):
                    raise FileFormatError(
                        f"{path}: total_scale must be finite and positive, got {text!r}"
                    )
            continue
        data_lines.append(stripped)
    if not data_lines or data_lines[0] != "input_index,projector_index,count":
        raise FileFormatError(f"{path}: missing or wrong header line")
    for line in data_lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise FileFormatError(f"{path}: malformed row {line!r}")
        try:
            i, j, c = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}: malformed row {line!r}") from exc
        if not (0 <= i < 16 and 0 <= j < 16):
            raise FileFormatError(f"{path}: index pair ({i}, {j}) out of range")
        if not math.isfinite(c) or c < 0.0:
            raise FileFormatError(f"{path}: negative or non-finite count in row {line!r}")
        if not np.isnan(counts[i, j]):
            raise FileFormatError(f"{path}: duplicate pair ({i}, {j})")
        counts[i, j] = c
    if np.any(np.isnan(counts)):
        missing = int(np.sum(np.isnan(counts)))
        raise FileFormatError(f"{path}: {missing} (input, projector) pairs missing")
    return CountTable(counts=counts, total_scale=total_scale)


def read_params(path: str) -> tuple[FilterParams, tuple[float, float, float] | None]:
    """Parse a parameter file into filter parameters and its delay configuration.

    The splitter is given either as explicit ``T`` and ``R`` or as
    ``ratio_RT``; the decoherence degree either directly as ``p`` or as a
    delay configuration (``tau_fs``, ``tau_c_fs``, ``mu``) from which p
    is derived. Exactly one member of each pair must be present; derived
    values are logged. ``theta1_rad``/``theta2_rad`` are accepted as
    aliases for the angle keys. Every validation error names the file.
    The second value returned is the ``(tau_fs, tau_c_fs, mu)`` tuple of
    the delay form, or None for the ``p`` form.
    """
    raw = _read_json_object(path)

    def pick(*names, required=True, default=None):
        found = [n for n in names if n in raw]
        if len(found) > 1:
            raise FileFormatError(f"{path}: duplicate keys {found}")
        if not found:
            if required:
                raise FileFormatError(f"{path}: missing key {names[0]!r}")
            return default
        value = raw[found[0]]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            raise FileFormatError(f"{path}: key {found[0]!r} must be a finite number")
        return float(value)

    has_tr = "T" in raw or "R" in raw
    has_ratio = "ratio_RT" in raw
    if has_tr == has_ratio:
        raise FileFormatError(f"{path}: give either T and R, or ratio_RT (exactly one form)")

    theta1 = pick("theta1", "theta1_rad")
    theta2 = pick("theta2", "theta2_rad")
    scale = pick("scale", required=False, default=1.0)

    has_p = "p" in raw
    temporal_keys = [k for k in ("tau_fs", "tau_c_fs", "mu") if k in raw]
    if has_p and temporal_keys:
        raise FileFormatError(f"{path}: give either p or (tau_fs, tau_c_fs, mu), not both")
    if not has_p and len(temporal_keys) != 3:
        raise FileFormatError(f"{path}: temporal form needs all of tau_fs, tau_c_fs, mu")

    if has_p:
        p, delay = pick("p"), None
    else:
        delay = (pick("tau_fs"), pick("tau_c_fs"), pick("mu"))
    if has_ratio:
        ratio = pick("ratio_RT")
    else:
        t, r = pick("T"), pick("R")

    # The physics constructors validate the values; their errors get the path.
    try:
        if delay is not None:
            p = decoherence_from_delay(*delay)
            log.info("derived p=%.6g from tau=%g fs, tau_c=%g fs, mu=%g", p, *delay)
        if has_ratio:
            fp = FilterParams.from_ratio(ratio, theta1=theta1, theta2=theta2, p=p, scale=scale)
            log.info("derived T=%.6g, R=%.6g from ratio_RT=%g", fp.T, fp.R, ratio)
        else:
            fp = FilterParams(T=t, R=r, theta1=theta1, theta2=theta2, p=p, scale=scale)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    # Bounds every rate; ``x * x`` overflows to inf where ``x**2`` would raise.
    x = fp.scale * (fp.T + fp.R)
    if not math.isfinite(x * x):
        raise FileFormatError(
            f"{path}: rate bound (scale*(T+R))^2 is not finite for scale={fp.scale!r}")
    return fp, delay


def write_fit_report(path: str, payload: dict) -> None:
    _write_json(path, payload)


def write_dip(path: str, curve: np.ndarray, visibility: float) -> None:
    rows = "".join(f"{float(tau)!r},{float(rate)!r}\n" for tau, rate in curve)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# visibility = {float(visibility)!r}\ntau_fs,rate\n{rows}")
