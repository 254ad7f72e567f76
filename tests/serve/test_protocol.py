"""Unit tests for the newline-delimited JSON wire protocol."""

from __future__ import annotations

import datetime
import json

import pytest

from repro.errors import (
    ExecutionError,
    LimitExceeded,
    PlanningError,
    RecoveryError,
    SemanticError,
    SqlTsSyntaxError,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_code_for,
    error_for_exception,
    error_payload,
)
from repro.sqlts.parser import parse_query


class TestFraming:
    def test_round_trip(self):
        payload = {"id": 7, "op": "query", "sql": "SELECT ..."}
        assert decode_frame(encode_frame(payload)) == payload

    def test_one_line_per_frame(self):
        frame = encode_frame({"id": 1})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1

    def test_compact_encoding(self):
        assert b" " not in encode_frame({"a": [1, 2], "b": {"c": 3}})

    def test_dates_serialize_as_iso(self):
        frame = encode_frame(
            {"rows": [[datetime.date(1999, 1, 25)]]}
        )
        assert json.loads(frame)["rows"] == [["1999-01-25"]]

    def test_exotic_values_fall_back_to_str(self):
        frame = encode_frame({"value": {1, 2} if False else complex(1, 2)})
        assert "(1+2j)" in frame.decode()

    def test_oversize_frame_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_non_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_frame(b"\xff\xfe{}\n")

    def test_non_json_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_frame(b"hello world\n")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_frame(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError, match="object"):
            decode_frame(b'"a string"\n')


class TestErrorMapping:
    @pytest.mark.parametrize(
        "error, code",
        [
            (SqlTsSyntaxError("bad token"), "syntax"),
            (SemanticError("unknown attr"), "semantic"),
            (PlanningError("not plannable"), "planning"),
            (LimitExceeded("deadline"), "limit"),
            (RecoveryError("bad checkpoint"), "recovery"),
            (ExecutionError("no such table"), "execution"),
            (ProtocolError("bad frame"), "corrupt_frame"),
            (RuntimeError("worker died"), "internal"),
        ],
    )
    def test_stable_codes(self, error, code):
        assert error_code_for(error) == code

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_is_a_syntax_error(self, digit):
        with pytest.raises(Exception) as caught:
            parse_query(f"SELECT X.a FROM t AS (X) WHERE X.a > {digit}")
        assert error_code_for(caught.value) == "syntax"

    def test_library_errors_keep_their_message(self):
        payload = error_for_exception(SqlTsSyntaxError("expected SELECT"), 3)
        assert payload == {
            "id": 3,
            "ok": False,
            "error": {
                "code": "syntax",
                "message": "expected SELECT",
                "retry_after": None,
            },
        }

    def test_internal_errors_name_the_class(self):
        payload = error_for_exception(ValueError("boom"))
        assert payload["error"]["code"] == "internal"
        assert "ValueError" in payload["error"]["message"]

    def test_error_payload_shape(self):
        payload = error_payload(
            "quota_exhausted", "budget spent", retry_after=1.5, request_id=9
        )
        assert payload["ok"] is False
        assert payload["error"]["retry_after"] == 1.5
        # The payload must itself survive the wire.
        assert decode_frame(encode_frame(payload)) == payload
