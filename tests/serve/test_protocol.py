"""Wire decoding of inline workloads, flags, per-request deadlines and
error codes."""

import numpy as np
import pytest

from repro.genome import encode
from repro.genome import FastaError
from repro.serve.protocol import (RequestError, decode_pairs, decode_reads,
                                  error_code, request_flag,
                                  request_timeout_s)


def codes(text):
    return encode(text, allow_n=True).tolist()


def decoded(entries):
    return [tuple(part.tolist() if isinstance(part, np.ndarray) else part
                  for part in entry) for entry in entries]


@pytest.mark.parametrize("entry, want", [
    (["ACGT", "TTGA", "p"], (codes("ACGT"), codes("TTGA"), "p")),
    (["ACGT", "TTGA"], (codes("ACGT"), codes("TTGA"), "pair1")),
    ({"read1": "ACGT", "read2": "TTGA", "name": "p"},
     (codes("ACGT"), codes("TTGA"), "p")),
    ({"read1": "ACGT", "read2": "TTGA"},
     (codes("ACGT"), codes("TTGA"), "pair1")),
    (["acgn", "NNTT", "p q"], (codes("ACGN"), codes("NNTT"), "p q")),
], ids=["list-named", "list-unnamed", "dict-named", "dict-unnamed",
        "lowercase-n-spaced-name"])
def test_pair_entries_decode(entry, want):
    first = ["AAAA", "CCCC", "first"]
    assert decoded(decode_pairs([first, entry]))[1] == want


@pytest.mark.parametrize("entry, want", [
    (["ACGT", "r"], (codes("ACGT"), "r")),
    (["ACGT"], (codes("ACGT"), "read1")),
    ("ACGT", (codes("ACGT"), "read1")),
    ({"read": "ACGT", "name": "r"}, (codes("ACGT"), "r")),
    ({"read": "acgn"}, (codes("ACGN"), "read1")),
], ids=["list-named", "list-unnamed", "bare-string", "dict-named",
        "dict-unnamed-lowercase-n"])
def test_read_entries_decode(entry, want):
    assert decoded(decode_reads(["AAAA", entry]))[1] == want


BAD_NAMES = [7, None, True, {"a": 1}, ["p"], "p\tq", "p\rq", "p\nq"]
BAD_NAME_IDS = ["number", "null", "bool", "dict", "list", "tab", "cr", "lf"]


@pytest.mark.parametrize("name", BAD_NAMES, ids=BAD_NAME_IDS)
@pytest.mark.parametrize("shape", ["list", "dict"])
def test_pair_names_must_be_one_field_strings(name, shape):
    entry = (["ACGT", "TTGA", name] if shape == "list"
             else {"read1": "ACGT", "read2": "TTGA", "name": name})
    with pytest.raises(RequestError, match=r"^pair 1: a name must"):
        decode_pairs([["AAAA", "CCCC", "first"], entry])


@pytest.mark.parametrize("name", BAD_NAMES, ids=BAD_NAME_IDS)
@pytest.mark.parametrize("shape", ["list", "dict"])
def test_read_names_must_be_one_field_strings(name, shape):
    entry = (["ACGT", name] if shape == "list"
             else {"read": "ACGT", "name": name})
    with pytest.raises(RequestError, match=r"^read 1: a name must"):
        decode_reads(["AAAA", entry])


@pytest.mark.parametrize("request_, want", [
    ({}, 3.0), ({"timeout_s": None}, None), ({"timeout_s": 0}, None),
    ({"timeout_s": 2}, 2.0), ({"timeout_s": 0.25}, 0.25)],
    ids=["absent", "null", "zero", "int", "float"])
def test_timeout_s_values(request_, want):
    assert request_timeout_s(request_, default=3.0) == want


@pytest.mark.parametrize("value", [-1, True, "5"],
                         ids=["negative", "bool", "string"])
def test_timeout_s_rejections(value):
    with pytest.raises(RequestError, match="timeout_s"):
        request_timeout_s({"timeout_s": value}, default=3.0)


@pytest.mark.parametrize("request_, want", [
    ({}, False), ({"header": True}, True), ({"header": False}, False)],
    ids=["absent", "true", "false"])
def test_flag_values(request_, want):
    assert request_flag(request_, "header") is want


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}],
                         ids=["string-false", "string-true", "zero", "one",
                              "null", "list", "dict"])
def test_flag_rejections(value):
    with pytest.raises(RequestError, match='^"trace" must be true or false'):
        request_flag({"trace": value}, "trace")


@pytest.mark.parametrize("exc, want", [
    (RequestError("bad"), "bad_request"),
    (FastaError("not FASTQ"), "bad_request"),
    (KeyError("engine"), "bad_request"),
    (FileNotFoundError("reads1"), "bad_request"),
    (IsADirectoryError("out"), "bad_request"),
    (NotADirectoryError("out"), "bad_request"),
    (PermissionError("out"), "bad_request"),
    (RuntimeError("kaput"), "internal"),
    (OSError("disk"), "internal"),
    (MemoryError(), "internal")],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception)
    else value)
def test_error_codes(exc, want):
    assert error_code(exc) == want
