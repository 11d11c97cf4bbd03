"""Output checks that need no stored reference, and output digests that
are compared against the reference recorded for a few seeds.

A check raises ``CheckFailed``; the worker counts the op as failed.

Digests keep discrete outputs whole (mask hashes, counts, booleans,
strings) and floating-point outputs as a few reductions plus an evenly
strided sample of at most ``SAMPLE`` values.  ``compare`` requires
discrete entries to match exactly and floats to match within ``FLOAT_TOL``
relative to max(1, |reference|).  It also reports whether every float
array hashes bit-identically; that is information, not a gate.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

FLOAT_TOL = 1e-12
SAMPLE = 64
LIPSCHITZ_SLACK = 1e-12


class CheckFailed(AssertionError):
    """An op output broke an invariant."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def distance_field_ok(values, h, label):
    """Nonnegative and 1-Lipschitz along every grid axis."""
    values = np.asarray(values, dtype=float)
    require(np.isfinite(values).all(), f"{label}: non-finite distance")
    require(values.min() >= 0.0, f"{label}: negative distance")
    for axis in range(values.ndim):
        step = float(np.abs(np.diff(values, axis=axis)).max())
        require(step <= h * (1.0 + LIPSCHITZ_SLACK) + LIPSCHITZ_SLACK,
                f"{label}: neighbour difference {step!r} exceeds h={h!r}")


def mask_ok(mask, label):
    """No flag inside the excluded band."""
    require(not np.any(mask.flags & mask.excluded),
            f"{label}: flag inside the excluded band")


def radii_ok(radii, r_max, label):
    radii = np.asarray(radii, dtype=float)
    require(radii.size > 0, f"{label}: no inner-ball samples")
    require(np.isfinite(radii).all() and radii.min() >= 0.0
            and radii.max() <= r_max,
            f"{label}: radius outside [0, {r_max!r}]")


def verdict_ok(report, expected_passed, label):
    require(report.get("passed") is expected_passed,
            f"{label}: passed={report.get('passed')!r}, "
            f"expected {expected_passed!r}")


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def _float(v):
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def digest(value):
    """JSON-ready digest of a mask, array, scalar or flat report dict."""
    if isinstance(value, dict):
        return {str(k): digest(v) for k, v in value.items()}
    if isinstance(value, np.ndarray) and value.dtype == bool:
        return {"mask_sha256": hashlib.sha256(
                    np.packbits(value, axis=None).tobytes()
                    + repr(value.shape).encode()).hexdigest(),
                "count": int(np.count_nonzero(value))}
    if isinstance(value, np.ndarray):
        flat = np.ascontiguousarray(value, dtype="<f8").reshape(-1)
        stride = max(1, flat.size // SAMPLE)
        finite = flat[np.isfinite(flat)]
        return {"float_sha256": hashlib.sha256(flat.tobytes()).hexdigest(),
                "size": int(flat.size),
                "nonfinite": int(flat.size - finite.size),
                "min": _float(finite.min()) if finite.size else None,
                "max": _float(finite.max()) if finite.size else None,
                "sum": _float(finite.sum()),
                "sample": [_float(v) for v in flat[::stride][:SAMPLE]]}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _float(value)
    return str(value)


def _close(ref, new):
    if isinstance(ref, str) or isinstance(new, str):
        return ref == new
    return abs(new - ref) <= FLOAT_TOL * max(1.0, abs(ref))


def compare(ref, new, path=""):
    """(mismatches, bit_identical) of a new digest against a reference."""
    mismatches = []
    identical = True
    if isinstance(ref, dict) and isinstance(new, dict):
        if set(ref) != set(new):
            return [f"{path}: keys differ"], False
        for key in ref:
            if key == "float_sha256":
                identical &= ref[key] == new[key]
                continue
            sub, same = compare(ref[key], new[key], f"{path}.{key}")
            mismatches += sub
            identical &= same
        return mismatches, identical
    if isinstance(ref, list) and isinstance(new, list):
        if len(ref) != len(new):
            return [f"{path}: length differs"], False
        for i, (a, b) in enumerate(zip(ref, new)):
            sub, same = compare(a, b, f"{path}[{i}]")
            mismatches += sub
            identical &= same
        return mismatches, identical
    if isinstance(ref, float) or isinstance(new, float):
        if isinstance(ref, (int, float)) and isinstance(new, (int, float)) \
                and not isinstance(ref, bool) and not isinstance(new, bool):
            ok = _close(float(ref), float(new))
            return ([] if ok else [f"{path}: {new!r} != {ref!r}"],
                    ok and ref == new)
    ok = ref == new and type(ref) is type(new)
    return ([] if ok else [f"{path}: {new!r} != {ref!r}"]), ok
