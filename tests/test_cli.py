"""Tests for the command-line interface."""

import argparse
import dataclasses
import os
import re
import socket
import threading

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
    "step": ("index build", "--step"),
    "delta": ("map", "--delta"),
    "engine": ("map", "--engine"),
    "output_format": ("map", "--format"),
    "batch_size": ("map", "--batch-size"),
    "workers": ("map", "--workers"),
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
        assert fields - set(seen) <= {"seed_length", "step",
                                      "verify_index"}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_registered(self):
        parser = build_parser()
        for argv in (["simulate"], ["design"],
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
            "call", "client", "design", "index", "lint", "map", "serve",
            "simulate", "stats", "top"]

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
        ["design", "--bogus"],
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

    @pytest.mark.parametrize("flag,value", [("--workers", "0"),
                                            ("--workers", "-2"),
                                            ("--workers", "two"),
                                            ("--batch-size", "-1"),
                                            ("--batch-size", "0"),
                                            ("--batch-size", "many")])
    def test_map_rejects_bad_worker_and_batch_values(self, capsys, flag,
                                                     value):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["map", "--reference", "r", "--reads1",
                               "a", "--reads2", "b", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

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


class TestWorkflow:
    def test_simulate_map_call_roundtrip(self, tmp_path, capsys,
                                         monkeypatch):
        # Pretend to have CPUs so --workers 2 exercises the pool even
        # on single-core test machines (the cap would degrade it).
        monkeypatch.setattr("repro.cli._available_cpus", lambda: 4)
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

        # Chunks of one (--batch-size 1) and the persistent
        # worker-pool streaming executor (with a small batch size, so
        # the pool really serves several chunks) write the same
        # records as the default chunk size.
        for suffix, extra in (("perpair", ["--batch-size", "1"]),
                              ("workers", ["--workers", "2"]),
                              ("stream", ["--workers", "2",
                                          "--batch-size", "16"])):
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

    def test_index_build_map_roundtrip(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setattr("repro.cli._available_cpus", lambda: 4)
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
        # build-per-run path, including with forked workers.
        ref_sam = str(tmp_path / "ref.sam")
        assert main(["map", "--reference", prefix + "_ref.fa",
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", ref_sam, "--no-fallback"]) == 0
        for suffix, extra in (("idx", []), ("idxw", ["--workers", "2"])):
            idx_sam = str(tmp_path / f"{suffix}.sam")
            assert main(["map", "--index", index_path,
                         "--reads1", prefix + "_1.fq",
                         "--reads2", prefix + "_2.fq",
                         "--out", idx_sam, "--no-fallback"] + extra) == 0
            assert open(idx_sam).read() == open(ref_sam).read()

    def test_index_build_default_output_path(self, tmp_path):
        prefix = str(tmp_path / "d")
        assert main(["simulate", "--out", prefix, "--pairs", "1",
                     "--chromosomes", "2000", "--seed", "2"]) == 0
        assert main(["index", "build",
                     "--reference", prefix + "_ref.fa"]) == 0
        assert os.path.exists(prefix + "_ref.fa.rpix")

    def test_map_caps_workers_at_cpu_count(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr("repro.cli._available_cpus", lambda: 2)
        prefix = str(tmp_path / "d")
        assert main(["simulate", "--out", prefix, "--pairs", "8",
                     "--chromosomes", "8000", "--seed", "5"]) == 0
        assert main(["map", "--reference", prefix + "_ref.fa",
                     "--reads1", prefix + "_1.fq",
                     "--reads2", prefix + "_2.fq",
                     "--out", str(tmp_path / "c.sam"),
                     "--no-fallback", "--workers", "64"]) == 0
        err = capsys.readouterr().err
        assert "capping at 2" in err

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

    def test_design_report(self, capsys):
        assert main(["design", "--memory", "DDR5",
                     "--simulated-pairs", "1500"]) == 0
        out = capsys.readouterr().out
        assert "Light Alignment" in out
        assert "GenPairX + GenDP" in out
        assert "host interface" in out


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"),
                    reason="serve/client need UNIX-domain sockets")
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
        ("genpair", ["--reads1", "_1.fq", "--reads2", "_2.fq",
                     "--workers", "2"]),
        ("mm2", ["--reads1", "_1.fq", "--reads2", "_2.fq"]),
        ("longread", ["--reads", "_long.fq"])],
        ids=["genpair", "mm2", "longread"])
    def test_map_returns_every_fd(self, world, tmp_path, capsys,
                                  monkeypatch, fds_returned, engine,
                                  reads):
        """One in-process ``repro map`` opens the index, the FASTQ
        inputs, the output and (for ``--workers 2``) a pool; it must
        leave none of them open."""
        monkeypatch.setattr("repro.cli._available_cpus", lambda: 4)
        argv = ["map", "--index", world + ".rpix", "--engine", engine,
                "--out", str(tmp_path / "out.sam")] + [
            world + arg if arg.startswith("_") else arg for arg in reads]
        with fds_returned():
            assert main(argv) == 0
        assert (tmp_path / "out.sam").stat().st_size > 0

    def test_call_variants_post_stage(self, world, tmp_path, capsys):
        out = str(tmp_path / "cv.sam")
        vcf = str(tmp_path / "cv.vcf")
        assert main(["map", "--index", world + ".rpix",
                     "--reads1", world + "_1.fq",
                     "--reads2", world + "_2.fq",
                     "--out", out, "--call-variants", vcf]) == 0
        assert open(vcf).readline().startswith("##fileformat")
        assert "called" in capsys.readouterr().out

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
        assert main(["client", "stats", "--socket", socket_path]) == 0
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
