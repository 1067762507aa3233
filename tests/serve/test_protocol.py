"""Wire decoding of inline workloads, flags, per-request deadlines and
error codes."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles.serve import decode_pairs_walk, decode_reads_walk

from repro.genome import encode
from repro.genome import FastaError
from repro.serve import ServeSettings
from repro.serve.protocol import (MAX_WAIT_S, RequestError, decode_pairs,
                                  decode_reads, error_code, request_flag,
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


@pytest.mark.parametrize("noun, decode_", [("pair", decode_pairs),
                                            ("read", decode_reads)])
@pytest.mark.parametrize("read", ["ACGé", "ACG\u00e9", "A\U0001F600C"],
                         ids=["latin", "escaped", "astral"])
def test_non_ascii_reads_name_their_entry(noun, decode_, read):
    entry = [read, "ACGT"] if noun == "pair" else [read]
    bad = read[3] if len(read) == 4 else read[1]
    with pytest.raises(RequestError) as excinfo:
        decode_(json.loads(json.dumps([entry])))
    assert str(excinfo.value) == f"{noun} 0: invalid DNA character: {bad!r}"


# -- the one-encode decode against the entry-by-entry walk ---------------

UNNAMED = object()
SHAPE_FAULTS = {"pair": [5, None, True, "AC", ["ACGT"],
                         ["ACGT", "ACGT", "n", "x"], {"read1": "ACGT"}],
                "read": [5, None, True, [], ["ACGT", "n", "x"],
                         {"name": "r"}]}
READ_FAULTS = [7, None, ["A", "C"], "AXG", "ACGé", "AC GT"]
NAME_FAULTS = [7, None, True, "p\tq", "p\rq", "p\nq"]


def build_entry(noun, reads, name, form):
    """One wire entry: a list or a dict (or, unnamed reads only, a bare
    string) holding ``reads`` and, unless ``UNNAMED``, ``name``."""
    if form == "str" and noun == "read" and name is UNNAMED:
        return reads[0]
    keys = ("read1", "read2") if noun == "pair" else ("read",)
    if form == "dict":
        entry = dict(zip(keys, reads))
        if name is not UNNAMED:
            entry["name"] = name
        return entry
    return list(reads) + ([] if name is UNNAMED else [name])


@st.composite
def payloads(draw, noun, faults):
    """A ``pairs``/``reads`` list and the ordinals of its faulty
    entries: mixed lengths, empty reads, lowercase and ``N``, or one
    length for every read (the reshaped path)."""
    width = 2 if noun == "pair" else 1
    length = draw(st.none() | st.integers(0, 6))
    text = st.text(alphabet="ACGTNacgtn",
                   min_size=length or 0,
                   max_size=8 if length is None else length)
    names = st.just(UNNAMED) | st.text(alphabet="abz _:/-", max_size=4)
    count = draw(st.integers(faults, 7))
    faulty = sorted(draw(st.sets(st.integers(0, max(count - 1, 0)),
                                 min_size=faults, max_size=faults)))
    entries = []
    for number in range(count):
        reads = [draw(text) for _ in range(width)]
        name = draw(names)
        form = draw(st.sampled_from(["list", "dict", "str"]))
        if number in faulty:
            kind = draw(st.sampled_from(["shape", "read", "name"]))
            if kind == "shape":
                entries.append(draw(st.sampled_from(SHAPE_FAULTS[noun])))
                continue
            if kind == "read":
                reads[draw(st.integers(0, width - 1))] = draw(
                    st.sampled_from(READ_FAULTS))
            else:
                name = draw(st.sampled_from(NAME_FAULTS))
            form = draw(st.sampled_from(["list", "dict"]))
        entries.append(build_entry(noun, reads, name, form))
    return entries, faulty


DECODERS = {"pair": (decode_pairs, decode_pairs_walk),
            "read": (decode_reads, decode_reads_walk)}


def as_lists(entries):
    return [tuple(part.tolist() if isinstance(part, np.ndarray) else part
                  for part in entry) for entry in entries]


@pytest.mark.parametrize("noun", ["pair", "read"])
@given(data=st.data())
def test_batched_decode_matches_the_walk(noun, data):
    entries, _ = data.draw(payloads(noun, 0))
    decode_, walk = DECODERS[noun]
    got = decode_(entries)
    assert as_lists(got) == as_lists(walk(entries))
    for entry in got:
        assert all(isinstance(part, np.ndarray) and part.dtype == np.uint8
                   for part in entry[:-1])


@pytest.mark.parametrize("noun", ["pair", "read"])
@pytest.mark.parametrize("faults", [1, 2])
@given(data=st.data())
def test_faulty_requests_raise_as_the_walk(noun, faults, data):
    """The error names the first faulty entry, with the walk's text,
    whichever kinds of fault sit in which entries."""
    entries, faulty = data.draw(payloads(noun, faults))
    decode_, walk = DECODERS[noun]
    with pytest.raises(RequestError) as want:
        walk(entries)
    with pytest.raises(RequestError) as got:
        decode_(entries)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{noun} {faulty[0]}: ")


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


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e309",
                                  "1e300", str(2 * MAX_WAIT_S)],
                         ids=["nan", "inf", "minus-inf", "1e309", "1e300",
                              "past-max-wait"])
def test_timeout_s_must_be_finite(text):
    """``json.loads`` parses all of these; none is a deadline the daemon
    can keep."""
    value = json.loads(text)
    with pytest.raises(RequestError, match='^"timeout_s" must be'):
        request_timeout_s({"timeout_s": value}, default=3.0)


def test_timeout_s_up_to_the_max_wait():
    assert request_timeout_s({"timeout_s": MAX_WAIT_S},
                             default=None) == MAX_WAIT_S


@pytest.mark.parametrize("field", ["request_timeout_s", "coalesce_wait_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf"), 2 * MAX_WAIT_S],
                         ids=["nan", "inf", "minus-inf", "past-max-wait"])
def test_serve_settings_waits_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ServeSettings(**{field: value}).validate()


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
