"""Tests for the command-line interface."""

import argparse
import dataclasses
import json
import os
import re
import socket
import threading

import numpy as np
import pytest

from repro.cli import build_parser, main


def _subparsers(parser):
    """``{name: subparser}`` of a parser's subcommands."""
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


#: The one (subcommand, flag) that sets each :class:`MappingConfig`
#: field.  ``map`` and ``serve`` share these through one helper; the
#: two fingerprint fields an index fixes are ``index build`` flags.
FLAG_OF_FIELD = {
    "seed_length": ("index build", "--seed-length"),
    "filter_threshold": ("map", "--filter-threshold"),
    "delta": ("map", "--delta"),
    "engine": ("map", "--engine"),
    "output_format": ("map", "--format"),
    "batch_size": ("map", "--batch-size"),
    "full_fallback": ("map", "--no-fallback"),
    "verify_index": ("map", "--no-verify"),
}


class TestConfigDriftGuard:
    """The facade carries what a flag sets, and nothing else."""

    def test_every_config_field_has_a_flag(self):
        from repro.api import MappingConfig

        assert list(FLAG_OF_FIELD) == [
            spec.name for spec in dataclasses.fields(MappingConfig)]
        commands = _subparsers(build_parser())
        commands["index build"] = _subparsers(commands["index"])["build"]
        for field, (command, flag) in FLAG_OF_FIELD.items():
            targets = [command] + (["serve"] if command == "map" else [])
            for target in targets:
                flags = {option for action in commands[target]._actions
                         for option in action.option_strings}
                assert flag in flags, (field, target, flag)

    @pytest.mark.parametrize("source", ["--reference", "--index"])
    def test_build_mapper_passes_only_config_fields(self, monkeypatch,
                                                    source):
        from repro.api import Mapper, MappingConfig, MappingConfigError

        seen = {}

        def record(cls, path, **overrides):
            seen.update(overrides)
            raise MappingConfigError("recorded")

        monkeypatch.setattr(Mapper, "from_reference", classmethod(record))
        monkeypatch.setattr(Mapper, "from_index", classmethod(record))
        assert main(["map", source, "x", "--reads1", "a", "--reads2", "b",
                     "--filter-threshold", "9"]) == 1
        fields = {spec.name for spec in dataclasses.fields(MappingConfig)}
        assert seen and set(seen) <= fields
        # Everything but the fingerprint the source fixes is passed.
        assert fields - set(seen) <= {"seed_length", "verify_index"}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_registered(self):
        parser = build_parser()
        for argv in (["simulate"],
                     ["map", "--reference", "r", "--reads1", "a",
                      "--reads2", "b"],
                     ["map", "--index", "r.rpix", "--reads1", "a",
                      "--reads2", "b"],
                     ["index", "build", "--reference", "r"],
                     ["index", "inspect", "--index", "r.rpix"],
                     ["serve", "--index", "r.rpix"],
                     ["client", "ping", "--socket", "s.sock"],
                     ["client", "map", "--socket", "s.sock",
                      "--reads1", "a", "--reads2", "b"],
                     ["call", "--reference", "r", "--sam", "s"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_one_spelling_per_subcommand(self):
        assert sorted(_subparsers(build_parser())) == [
            "call", "client", "index", "map", "serve", "simulate",
            "stats", "top"]

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "--bogus"],
        ["map", "--reference", "r", "--reads1", "a", "--reads2", "b",
         "--bogus"],
        ["index", "build", "--reference", "r", "--bogus"],
        ["index", "inspect", "--index", "i", "--bogus"],
        ["serve", "--index", "i", "--bogus"],
        ["client", "ping", "--socket", "s", "--bogus"],
        ["call", "--reference", "r", "--sam", "s", "--bogus"],
        ["design"],   # the hardware report is benchmarks/bench_tab0[3-5]
        ["lint", "src/repro"],   # the linter is python -m tools.lint.cli
    ])
    def test_unknown_args_exit_2_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_input_file_is_an_error_not_a_traceback(
            self, tmp_path, capsys):
        assert main(["map", "--reference", str(tmp_path / "no.fa"),
                     "--reads1", "a.fq", "--reads2", "b.fq",
                     "--out", str(tmp_path / "x.sam")]) == 1
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["map", "--reference", "r", "--reads1", "a", "--reads2", "b"],
        ["map", "--engine", "longread", "--reference", "r",
         "--reads", "a"],
        ["serve", "--reference", "r"]])
    @pytest.mark.parametrize("flag", ["--filter-chain", "--aligner"])
    def test_removed_stage_flags_are_unrecognized(self, capsys, argv,
                                                  flag):
        build_parser().parse_args(argv)  # valid without the flag
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + [flag, "shd"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    @pytest.mark.parametrize("flag,value", [("--batch-size", "-1"),
                                            ("--batch-size", "0"),
                                            ("--batch-size", "many")])
    def test_map_rejects_bad_batch_values(self, capsys, flag, value):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["map", "--reference", "r", "--reads1",
                               "a", "--reads2", "b", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--pairs", "-3"], "--pairs"),
        (["simulate", "--chromosomes", "0"], "--chromosomes"),
        (["simulate", "--chromosomes", "abc"], "--chromosomes"),
        (["simulate", "--chromosomes", "100,0"], "--chromosomes"),
        (["simulate", "--profile", "mason", "--error-rate", "1.5"],
         "--error-rate")],
        ids=["pairs-negative", "chromosomes-zero", "chromosomes-abc",
             "chromosomes-one-zero", "error-rate-1.5"])
    def test_out_of_range_simulate_values_exit_2(
            self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(tmp_path / "sim")])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        error_lines = [line for line in captured.err.splitlines()
                       if "error:" in line]
        assert len(error_lines) == 1 and flag in error_lines[0]
        assert "Traceback" not in captured.err and captured.out == ""

    def test_simulate_on_chromosomes_shorter_than_a_pair_is_one_line(
            self, tmp_path, capsys):
        assert main(["simulate", "--chromosomes", "100", "--pairs", "2",
                     "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert err == "error: no chromosome long enough for the fragment\n"

    def test_map_has_no_call_variants_flag(self, capsys):
        # Variants are called from the SAM (`repro call`), one path.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["map", "--reference", "r", "--reads1", "a", "--reads2",
                 "b", "--call-variants", "out.vcf"])
        assert excinfo.value.code == 2
        assert "--call-variants" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["map", "--reference", "r", "--reads1", "a", "--reads2", "b"],
        ["serve", "--reference", "r"]], ids=["map", "serve"])
    def test_workers_flag_is_gone(self, capsys, argv):
        # Mapping runs in one process: there is no pool to size.
        build_parser().parse_args(argv)  # valid without the flag
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--workers", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--workers" in err

    def test_map_rejects_zero_batch_size_naming_the_replacement(
            self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["map", "--reference", "r", "--reads1", "a", "--reads2",
                 "b", "--batch-size", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--batch-size" in err and "pair-by-pair" in err
        assert "1 gives the same output" in err

    @pytest.mark.parametrize("flag, value", [
        ("--seed-length", "0"), ("--seed-length", "-5"),
        ("--filter-threshold", "0"), ("--filter-threshold", "-1")])
    def test_index_build_rejects_out_of_range_values(self, tmp_path,
                                                     capsys, flag, value):
        # A bad seed length used to end in a traceback, and a bad
        # threshold wrote an index that map and serve then refused.
        fasta, out = tmp_path / "r.fa", tmp_path / "r.rpix"
        fasta.write_text(">chr1\n" + "ACGT" * 100 + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["index", "build", "--reference", str(fasta),
                  "--out", str(out), flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        error_lines = [line for line in captured.err.splitlines()
                       if "error:" in line]
        assert len(error_lines) == 1
        assert f"{flag} must be >= 1, got {value}" in error_lines[0]
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_index_build_has_no_step_flag(self, capsys):
        # Every reference position is indexed: there is no stride.
        argv = ["index", "build", "--reference", "r"]
        build_parser().parse_args(argv)  # valid without the flag
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--step", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--step" in err


class TestWorkflow:
    def test_simulate_map_call_roundtrip(self, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        assert main(["simulate", "--out", prefix, "--pairs", "80",
                     "--chromosomes", "40000", "--seed", "3"]) == 0
        for suffix in ("_ref.fa", "_truth.vcf", "_1.fq", "_2.fq"):
            assert os.path.exists(prefix + suffix)

        sam_path = str(tmp_path / "out.sam")
        assert main(["map", "--reference", prefix + "_ref.fa",
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", sam_path, "--no-fallback"]) == 0
        assert os.path.exists(sam_path)
        body = [line for line in open(sam_path)
                if not line.startswith("@")]
        assert len(body) == 160

        # Chunks of one and of 16 write the same records as the
        # default chunk size.
        for suffix, extra in (("perpair", ["--batch-size", "1"]),
                              ("stream", ["--batch-size", "16"])):
            alt_path = str(tmp_path / f"out_{suffix}.sam")
            assert main(["map", "--reference", prefix + "_ref.fa",
                         "--reads1", prefix + "_1.fq",
                         "--reads2", prefix + "_2.fq",
                         "--out", alt_path, "--no-fallback"] + extra) == 0
            assert open(alt_path).read() == open(sam_path).read()

        vcf_path = str(tmp_path / "calls.vcf")
        assert main(["call", "--reference", prefix + "_ref.fa",
                     "--sam", sam_path, "--out", vcf_path]) == 0
        assert open(vcf_path).readline().startswith("##fileformat")
        out = capsys.readouterr().out
        assert "mapped 80 pairs" in out

    def test_index_build_map_roundtrip(self, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        assert main(["simulate", "--out", prefix, "--pairs", "40",
                     "--chromosomes", "30000", "--seed", "9"]) == 0

        index_path = str(tmp_path / "demo.rpix")
        assert main(["index", "build", "--reference", prefix + "_ref.fa",
                     "--out", index_path]) == 0
        assert os.path.exists(index_path)
        assert main(["index", "inspect", "--index", index_path]) == 0
        out = capsys.readouterr().out
        assert "seed length 50" in out
        assert "checksums: ok" in out

        # map --index must write byte-identical SAM to the
        # build-per-run path.
        ref_sam = str(tmp_path / "ref.sam")
        assert main(["map", "--reference", prefix + "_ref.fa",
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", ref_sam, "--no-fallback"]) == 0
        idx_sam = str(tmp_path / "idx.sam")
        assert main(["map", "--index", index_path,
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", idx_sam, "--no-fallback"]) == 0
        assert open(idx_sam).read() == open(ref_sam).read()

    def test_index_build_default_output_path(self, tmp_path):
        prefix = str(tmp_path / "d")
        assert main(["simulate", "--out", prefix, "--pairs", "1",
                     "--chromosomes", "2000", "--seed", "2"]) == 0
        assert main(["index", "build",
                     "--reference", prefix + "_ref.fa"]) == 0
        assert os.path.exists(prefix + "_ref.fa.rpix")

    def test_map_requires_reference_xor_index(self, tmp_path, capsys):
        assert main(["map", "--reads1", "a.fq", "--reads2", "b.fq"]) == 2
        assert main(["map", "--reference", "r.fa", "--index", "r.rpix",
                     "--reads1", "a.fq", "--reads2", "b.fq"]) == 2
        err = capsys.readouterr().err
        assert "exactly one of" in err

    def test_map_rejects_stale_index_fingerprint(self, tmp_path, capsys):
        prefix = str(tmp_path / "d")
        assert main(["simulate", "--out", prefix, "--pairs", "2",
                     "--chromosomes", "3000", "--seed", "4"]) == 0
        index_path = str(tmp_path / "d.rpix")
        assert main(["index", "build", "--reference", prefix + "_ref.fa",
                     "--out", index_path]) == 0
        assert main(["map", "--index", index_path,
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--filter-threshold", "77",
                     "--out", str(tmp_path / "x.sam")]) == 1
        assert "fingerprint mismatch" in capsys.readouterr().err

    def test_map_rejects_unequal_fastqs(self, tmp_path, capsys):
        prefix = str(tmp_path / "d")
        assert main(["simulate", "--out", prefix, "--pairs", "6",
                     "--chromosomes", "5000", "--seed", "6"]) == 0
        truncated = tmp_path / "short_2.fq"
        lines = open(prefix + "_2.fq").read().splitlines(True)
        truncated.write_text("".join(lines[:8]))  # 2 of 6 records
        assert main(["map", "--reference", prefix + "_ref.fa",
                     "--reads1", prefix + "_1.fq",
                     "--reads2", str(truncated),
                     "--out", str(tmp_path / "x.sam"),
                     "--no-fallback"]) == 1
        assert "unequal read counts" in capsys.readouterr().err

    def test_map_accepts_a_trailing_blank_line(self, tmp_path, capsys):
        prefix = str(tmp_path / "d")
        assert main(["simulate", "--out", prefix, "--pairs", "6",
                     "--chromosomes", "5000", "--seed", "6"]) == 0
        for suffix in ("_1.fq", "_2.fq"):
            with open(prefix + suffix, "a") as handle:
                handle.write("\n")
        assert main(["map", "--reference", prefix + "_ref.fa",
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", str(tmp_path / "x.sam"),
                     "--no-fallback"]) == 0
        assert "mapped 6 pairs" in capsys.readouterr().out

    def test_map_bad_base_is_a_one_line_error(self, tmp_path, capsys):
        # Regression: a base outside ACGTN escaped the FASTQ reader as a
        # SequenceError, which map did not catch: a traceback.
        prefix = str(tmp_path / "d")
        assert main(["simulate", "--out", prefix, "--pairs", "6",
                     "--chromosomes", "5000", "--seed", "6"]) == 0
        lines = open(prefix + "_2.fq").read().splitlines(True)
        lines[9] = "X" + lines[9][1:]  # record 3's sequence
        open(prefix + "_2.fq", "w").write("".join(lines))
        capsys.readouterr()
        assert main(["map", "--reference", prefix + "_ref.fa",
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", str(tmp_path / "x.sam"),
                     "--no-fallback"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: FASTQ record 3 (")
        assert "_2.fq: invalid base 'X'" in err

    @pytest.mark.parametrize("command", ["index", "map"])
    @pytest.mark.parametrize("base,message", [
        ("R", "error: FASTA record 'c2' in {path}: invalid base 'R' at "
              "base 1,201; only ACGT and N are supported"),
        ("N", "error: reference record 'c2' has an N at base 1,201; "
              "indexing N runs is not supported yet"),
    ], ids=["iupac", "n_run"])
    def test_unsupported_reference_base_is_a_one_line_error(
            self, tmp_path, capsys, command, base, message):
        # Regression: an IUPAC code escaped read_fasta as a SequenceError
        # and an N reached the seed hashing as a bare ValueError: both
        # printed a traceback.
        rng = np.random.default_rng(3)
        first, second = ("".join("ACGT"[code] for code in
                                 rng.integers(0, 4, length))
                         for length in (500, 3000))
        path = tmp_path / "ref.fa"
        path.write_text(f">c1\n{first}\n>c2\n{second[:1200]}{base * 5}"
                        f"{second[1205:]}\n")
        argv = (["index", "build", "--reference", str(path), "--out",
                 str(tmp_path / "ref.rpix")] if command == "index" else
                ["map", "--reference", str(path), "--reads1", "r1.fq",
                 "--reads2", "r2.fq", "--out", str(tmp_path / "x.sam")])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == message.format(path=path) + "\n"
        assert not (tmp_path / "ref.rpix").exists()


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"),
                    reason="serve/client need UNIX-domain sockets")
class TestMapReport:
    def test_stage_shares_cover_every_pair(self, tmp_path, capsys):
        """The GIAB-like regression set (repeat-rich reference 101,
        donor 103, reads 200): 8 pairs pass the filter but no candidate
        DP places them, so they go to the full pipeline too — the
        stage line's three shares must cover all 300 pairs."""
        from repro.genome import (ErrorModel, ReadSimulator, RepeatProfile,
                                  generate_reference, plant_variants,
                                  write_fasta, write_fastq)

        reference = generate_reference(np.random.default_rng(101),
                                       (160_000, 80_000),
                                       repeats=RepeatProfile.human_like())
        donor = plant_variants(np.random.default_rng(103), reference)
        pairs = ReadSimulator(reference, donor=donor,
                              error_model=ErrorModel.giab_like(),
                              seed=200).simulate_pairs(300)
        prefix = str(tmp_path / "giab")
        write_fasta(prefix + "_ref.fa", reference)
        for mate in (1, 2):
            write_fastq(f"{prefix}_{mate}.fq",
                        ((getattr(pair, f"read{mate}").name,
                          getattr(pair, f"read{mate}").codes)
                         for pair in pairs))
        assert main(["map", "--reference", prefix + "_ref.fa",
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", str(tmp_path / "out.sam")]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("  light-aligned 80.7% | "
                               "DP-at-candidates 11.0% | "
                               "full fallback 8.3% | unmapped ")
        shares = [float(share) for share in re.findall(r"([\d.]+)%", line)]
        assert len(shares) == 3
        assert sum(shares) == pytest.approx(100.0, abs=0.15)


class TestEngineWorkflow:
    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        """A simulated dataset + index + long-read FASTQ, built once."""
        import numpy as np

        from repro.genome import ReadSimulator, read_fasta, write_fastq

        root = tmp_path_factory.mktemp("engines")
        prefix = str(root / "demo")
        assert main(["simulate", "--out", prefix, "--pairs", "40",
                     "--chromosomes", "30000", "--seed", "9"]) == 0
        assert main(["index", "build", "--reference",
                     prefix + "_ref.fa", "--out", prefix + ".rpix"]) == 0
        reference = read_fasta(prefix + "_ref.fa")
        sim = ReadSimulator(reference, seed=23)
        reads = sim.simulate_long_reads(4, length_mean=1200,
                                        length_sd=150)
        write_fastq(prefix + "_long.fq",
                    ((r.name, r.codes) for r in reads))
        return prefix

    def test_engine_genpair_is_byte_identical_to_default(self, world,
                                                         tmp_path):
        default = str(tmp_path / "default.sam")
        explicit = str(tmp_path / "explicit.sam")
        base = ["map", "--index", world + ".rpix",
                "--reads1", world + "_1.fq", "--reads2", world + "_2.fq",
                "--no-fallback"]
        assert main(base + ["--out", default]) == 0
        assert main(base + ["--engine", "genpair",
                            "--out", explicit]) == 0
        assert open(explicit).read() == open(default).read()

    def test_mm2_engine_paf_output(self, world, tmp_path, capsys):
        out = str(tmp_path / "mm2.paf")
        assert main(["map", "--index", world + ".rpix",
                     "--engine", "mm2", "--format", "paf",
                     "--reads1", world + "_1.fq",
                     "--reads2", world + "_2.fq", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines and all(len(line.split("\t")) >= 12
                             for line in lines)
        report = capsys.readouterr().out
        assert "proper pairs" in report
        # The chaining work closes the stats line.
        anchors, cells = re.search(
            r"\| anchors (\d+) \| chaining cells (\d+)$", report,
            re.MULTILINE).groups()
        assert 0 < int(anchors) < int(cells)

    def test_engine_longread_flag_matches_the_api(self, world, tmp_path,
                                                  capsys):
        from repro.api import Mapper

        flag = str(tmp_path / "flag.jsonl")
        api = str(tmp_path / "api.jsonl")
        assert main(["map", "--index", world + ".rpix",
                     "--engine", "longread", "--format", "jsonl",
                     "--reads", world + "_long.fq", "--out", flag]) == 0
        assert "long reads" in capsys.readouterr().out
        with Mapper.from_index(world + ".rpix", engine="longread",
                               output_format="jsonl") as mapper:
            mapper.write(mapper.map_file(world + "_long.fq"), api)
        assert open(flag).read() == open(api).read()

    @pytest.mark.parametrize("engine, reads", [
        ("genpair", ["--reads1", "_1.fq", "--reads2", "_2.fq"]),
        ("mm2", ["--reads1", "_1.fq", "--reads2", "_2.fq"]),
        ("longread", ["--reads", "_long.fq"])],
        ids=["genpair", "mm2", "longread"])
    def test_map_returns_every_fd(self, world, tmp_path, capsys,
                                  fds_returned, engine, reads):
        """One in-process ``repro map`` opens the index, the FASTQ
        inputs and the output; it must leave none of them open."""
        argv = ["map", "--index", world + ".rpix", "--engine", engine,
                "--out", str(tmp_path / "out.sam")] + [
            world + arg if arg.startswith("_") else arg for arg in reads]
        with fds_returned():
            assert main(argv) == 0
        assert (tmp_path / "out.sam").stat().st_size > 0

    @pytest.mark.parametrize("fmt", ["sam", "paf", "jsonl"])
    @pytest.mark.parametrize("engine", ["genpair", "mm2"])
    def test_an_empty_read_is_unmapped(self, world, tmp_path, engine, fmt):
        """A read of no bases (an empty FASTQ record) is never placed:
        mm2's mate rescue used to accept its score-0 alignment and write
        a proper pair with MAPQ 60 and an empty SEQ column.  Its mate
        maps single-end."""
        lines = open(world + "_2.fq").read().splitlines(True)
        lines[1] = lines[3] = "\n"
        reads2 = tmp_path / "empty_2.fq"
        reads2.write_text("".join(lines))
        empty = lines[0][1:].split()[0]
        mate = empty[:-1] + "1"
        out = tmp_path / f"out.{fmt}"
        assert main(["map", "--index", world + ".rpix", "--engine", engine,
                     "--format", fmt, "--reads1", world + "_1.fq",
                     "--reads2", str(reads2), "--out", str(out)]) == 0
        body = [line.rstrip("\n") for line in open(out)
                if not line.startswith("@")]
        if fmt == "sam":
            records = {fields[0]: fields for fields in
                       (line.split("\t") for line in body)}
            assert all(fields[9] for fields in records.values())
            assert int(records[empty][1]) & 4
            assert records[empty][9] == "*"
            assert int(records[mate][1]) & (4 | 2) == 0
        elif fmt == "paf":
            names = [line.split("\t")[0] for line in body]
            assert empty not in names and mate in names
        else:
            records = {record["name"]: record
                       for record in map(json.loads, body)}
            assert records[empty]["mapped"] is False
            assert records[mate]["mapped"] is True
            assert records[mate]["proper_pair"] is False

    def test_an_empty_long_read_has_no_empty_seq(self, world, tmp_path):
        lines = open(world + "_long.fq").read().splitlines(True)
        lines[1] = lines[3] = "\n"
        reads = tmp_path / "empty_long.fq"
        reads.write_text("".join(lines))
        out = tmp_path / "out.sam"
        assert main(["map", "--index", world + ".rpix", "--engine",
                     "longread", "--reads", str(reads),
                     "--out", str(out)]) == 0
        first = next(line for line in open(out)
                     if not line.startswith("@")).split("\t")
        assert int(first[1]) & 4 and first[9] == "*"

    @pytest.mark.parametrize("line,message", [
        ("r\tx\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\t*",
         "FLAG 'x' is not a non-negative integer"),
        ("r\t0\tchr1\t1.5\t60\t4M\t*\t0\t0\tACGT\t*",
         "POS '1.5' is not a non-negative integer"),
        ("r\t0\tchr1\t100\t60\t4M\t*\t0\t0",
         "9 tab-separated columns; a SAM record has at least 11"),
        ("r\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACRT\t*",
         "invalid DNA character: 'R'"),
        ("r\t0\tchr1\t100\t60\t4Q\t*\t0\t0\tACGT\t*",
         "malformed CIGAR: '4Q'"),
        ("r\t0\tchr1\t100\t60\t5M\t*\t0\t0\tACGT\t*",
         "CIGAR 5M covers 5 read bases but SEQ has 4"),
        ("r\t0\tchrZ\t100\t60\t4M\t*\t0\t0\tACGT\t*",
         "RNAME 'chrZ' is not in the reference"),
    ], ids=["flag", "pos", "columns", "iupac", "cigar", "seq-length",
            "rname"])
    def test_call_malformed_sam_is_a_one_line_error(
            self, world, tmp_path, capsys, line, message):
        """A malformed record names the file and line instead of
        raising a traceback out of the SAM reader."""
        sam = tmp_path / "bad.sam"
        sam.write_text("@HD\tVN:1.6\n"
                       "ok\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\t*\n"
                       + line + "\n")
        capsys.readouterr()
        assert main(["call", "--reference", world + "_ref.fa",
                     "--sam", str(sam),
                     "--out", str(tmp_path / "x.vcf")]) == 1
        assert capsys.readouterr().err == f"error: {sam}:3: {message}\n"

    def test_call_malformed_reference_is_a_one_line_error(
            self, tmp_path, capsys):
        """A bad base in ``call --reference`` ends in one ``error:``
        line and exit 1, as it does for ``map`` and ``index build``."""
        fasta = tmp_path / "bad.fa"
        fasta.write_text(">chr1\nACGTRACGT\n")
        sam = tmp_path / "empty.sam"
        sam.write_text("@HD\tVN:1.6\n")
        capsys.readouterr()
        assert main(["call", "--reference", str(fasta), "--sam", str(sam),
                     "--out", str(tmp_path / "x.vcf")]) == 1
        assert capsys.readouterr().err == (
            f"error: FASTA record 'chr1' in {fasta}: invalid base 'R' at "
            "base 5; only ACGT and N are supported\n")

    def test_lazy_engine_config_error_is_clean(self, world, tmp_path,
                                               capsys):
        """Engine-construction errors surface as `error: ...` + exit 1,
        not a traceback — engines build lazily inside map_file, after
        _build_mapper's own gate has passed.  An index built with
        seed_length 200 makes the longread default chunk (150) invalid.
        """
        wide = str(tmp_path / "wide.rpix")
        assert main(["index", "build", "--reference",
                     world + "_ref.fa", "--seed-length", "200",
                     "--out", wide]) == 0
        capsys.readouterr()
        code = main(["map", "--engine", "longread", "--index", wide,
                     "--reads", world + "_long.fq",
                     "--out", str(tmp_path / "x.sam")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "chunk_length" in err

    def test_wrong_input_arity_exits_2(self, world, capsys):
        assert main(["map", "--index", world + ".rpix",
                     "--engine", "longread",
                     "--reads1", world + "_1.fq",
                     "--reads2", world + "_2.fq"]) == 2
        assert "--reads" in capsys.readouterr().err
        assert main(["map", "--index", world + ".rpix",
                     "--engine", "mm2",
                     "--reads", world + "_long.fq"]) == 2
        assert "--reads1" in capsys.readouterr().err
        assert main(["map", "--index", world + ".rpix",
                     "--reads1", world + "_1.fq"]) == 2


class TestServeWorkflow:
    def test_serve_client_map_matches_offline(self, tmp_path, capsys):
        prefix = str(tmp_path / "d")
        assert main(["simulate", "--out", prefix, "--pairs", "30",
                     "--chromosomes", "20000", "--seed", "12"]) == 0
        index_path = str(tmp_path / "d.rpix")
        assert main(["index", "build",
                     "--reference", prefix + "_ref.fa",
                     "--out", index_path]) == 0
        offline_sam = str(tmp_path / "offline.sam")
        assert main(["map", "--index", index_path,
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", offline_sam, "--no-fallback"]) == 0

        socket_path = str(tmp_path / "d.sock")
        exit_codes = []
        daemon = threading.Thread(
            target=lambda: exit_codes.append(
                main(["serve", "--index", index_path, "--socket",
                      socket_path, "--no-fallback"])),
            daemon=True)
        daemon.start()
        for _ in range(100):
            if os.path.exists(socket_path):
                break
            daemon.join(timeout=0.1)
        assert os.path.exists(socket_path), "daemon never bound"

        assert main(["client", "ping", "--socket", socket_path]) == 0
        served_sam = str(tmp_path / "served.sam")
        assert main(["client", "map", "--socket", socket_path,
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", served_sam]) == 0
        assert open(served_sam).read() == open(offline_sam).read()
        assert main(["stats", "--json", "--socket", socket_path]) == 0
        assert main(["client", "shutdown", "--socket",
                     socket_path]) == 0
        daemon.join(timeout=10)
        assert not daemon.is_alive()
        assert exit_codes == [0]
        out = capsys.readouterr().out
        assert "daemon alive" in out
        assert "mapped 30 pairs" in out
        assert "daemon stopped" in out

    def test_client_map_requires_reads(self, tmp_path, capsys):
        assert main(["client", "map",
                     "--socket", str(tmp_path / "x.sock")]) == 2
        assert "--reads1" in capsys.readouterr().err

    def test_client_without_daemon_errors_cleanly(self, tmp_path,
                                                  capsys):
        assert main(["client", "ping",
                     "--socket", str(tmp_path / "gone.sock")]) == 1
        assert "repro serve" in capsys.readouterr().err
