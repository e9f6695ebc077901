"""Rendering helpers: rationals as text/JSON, reports as JSON."""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .measures import BoundRecord, MeasureSet


def fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fraction_decimal(q: Fraction, sig: int = 6) -> str:
    return f"{float(q):.{sig}g}"


def fraction_json(q: Fraction) -> dict[str, Any]:
    return {"num": q.numerator, "den": q.denominator, "decimal": fraction_decimal(q)}


def measure_set_json(ms: MeasureSet) -> dict[str, Any]:
    out: dict[str, Any] = {
        key: fraction_json(getattr(ms, key)) for key in ("m1", "s", "var", "ird", "irr")
    }
    out["omega"] = None if ms.omega is None else fraction_json(ms.omega)
    return out


def bound_record_json(rec: BoundRecord) -> dict[str, Any]:
    return {
        "bound_id": rec.bound_id,
        "formula": rec.formula,
        "lhs": fraction_json(rec.lhs),
        "rhs": fraction_json(rec.rhs),
        "holds": rec.holds,
        "is_equality": rec.is_equality,
        "predicted_equality": rec.predicted_equality,
        "agreement": rec.agreement,
    }


def report_json(report: Any, include_timing: bool = True) -> dict[str, Any]:
    """JSON form of a VerificationReport (timing optional for byte-stable diffs).

    Built field by field: ``json`` would write a record, a tuple, as a list.
    """
    data = report._asdict()
    for key in ("violations", "findings", "equalities"):
        data[key] = [item._asdict() for item in data[key]]
    if not include_timing:
        del data["elapsed"]
    return data

