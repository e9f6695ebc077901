import json
from fractions import Fraction as F

from graphirr.enumeration import EnumerationSpec
from graphirr.families import complete_multipartite, wheel
from graphirr.measures import bound_report, measure_set
from graphirr.serialize import (
    bound_record_json,
    fraction_decimal,
    fraction_json,
    fraction_text,
    measure_set_json,
    report_json,
    report_json_text,
)
from graphirr.verify import run_suite


class TestFractions:
    def test_text(self):
        assert fraction_text(F(80, 7)) == "80/7"
        assert fraction_text(F(12)) == "12"
        assert fraction_text(F(-3, 4)) == "-3/4"

    def test_decimal_six_significant(self):
        assert fraction_decimal(F(112, 3)) == "37.3333"
        assert fraction_decimal(F(98, 9)) == "10.8889"
        assert fraction_decimal(F(13, 100)) == "0.13"

    def test_json_shape(self):
        assert fraction_json(F(160, 49)) == {
            "num": 160,
            "den": 49,
            "decimal": "3.26531",
        }


class TestMeasureRendering:
    def test_json_round_trip(self):
        ms = measure_set(complete_multipartite([2, 3, 5]))
        doc = measure_set_json(ms)
        assert doc["s"] == {"num": 12, "den": 1, "decimal": "12"}
        assert doc["omega"]["num"] == 13 and doc["omega"]["den"] == 100
        json.dumps(doc)  # serialisable

    def test_regular_omega_null(self):
        from graphirr.families import cycle

        doc = measure_set_json(measure_set(cycle(5)))
        assert doc["omega"] is None

    def test_bound_record_json(self):
        rec = bound_report(wheel(6))[0]
        doc = bound_record_json(rec)
        assert set(doc) == {
            "bound_id",
            "formula",
            "lhs",
            "rhs",
            "holds",
            "is_equality",
            "predicted_equality",
            "agreement",
        }
        json.dumps(doc)


class TestReportRendering:
    def test_timing_stripped_form_is_stable(self):
        specs = [EnumerationSpec(n=4, connected_only=True)]
        a = report_json(run_suite(specs, "bounds"), include_timing=False)
        b = report_json(run_suite(specs, "bounds"), include_timing=False)
        assert a == b
        assert "elapsed" not in a

    def test_full_report_has_timing(self):
        rep = run_suite([wheel(5)], "bounds")
        doc = report_json(rep)
        assert "elapsed" in doc and doc["suite_id"] == "bounds"
        json.loads(report_json_text(rep))
