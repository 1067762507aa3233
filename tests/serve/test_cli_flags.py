"""``repro serve`` flag validation: bad values exit 2 via argparse."""

import pytest

from repro.cli import build_parser, main
from repro.index import save_index

SERVE_BASE = ["serve", "--index", "demo.rpix", "--socket", "d.sock"]


class TestServeFlagValidation:
    @pytest.mark.parametrize("flag,value", [
        ("--max-queue", "0"),
        ("--max-queue", "-3"),
        ("--max-queue", "lots"),
        ("--max-clients", "0"),
        ("--max-clients", "-1"),
        ("--request-timeout", "0"),
        ("--request-timeout", "-2.5"),
        ("--request-timeout", "soon"),
        ("--request-timeout", "nan"),
        ("--request-timeout", "inf"),
        ("--coalesce-max", "0"),
        ("--coalesce-wait-ms", "-1"),
        ("--tcp", "host:notaport"),
        ("--tcp", "host:70000"),
        ("--tcp", "just-a-path.sock"),
    ])
    def test_bad_values_exit_2_naming_the_flag(self, capsys, flag,
                                               value):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(SERVE_BASE + [flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_defaults_match_serve_settings(self):
        from repro.serve import ServeSettings

        args = build_parser().parse_args(SERVE_BASE)
        defaults = ServeSettings()
        assert args.max_queue == defaults.max_queue
        assert args.max_clients == defaults.max_clients
        assert args.request_timeout == defaults.request_timeout_s
        assert args.coalesce_max == defaults.coalesce_requests
        assert args.tcp is None

    def test_good_values_parse(self):
        args = build_parser().parse_args(
            SERVE_BASE + ["--tcp", "127.0.0.1:0", "--max-clients",
                          "2", "--max-queue", "8",
                          "--request-timeout", "1.5",
                          "--coalesce-max", "4",
                          "--coalesce-wait-ms", "10"])
        assert args.tcp.port == 0
        assert args.max_clients == 2
        assert args.request_timeout == 1.5
        assert args.coalesce_wait_ms == 10

    def test_defaults_shown_in_help(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["serve", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ("--tcp", "--max-clients", "--max-queue",
                     "--request-timeout", "--coalesce-max"):
            assert flag in help_text
        assert "default: 64" in help_text
        assert "default: 300" in help_text


@pytest.mark.parametrize("flag, value, field", [
    ("--coalesce-wait-ms", str(10 ** 13), "coalesce_wait_s"),
    ("--request-timeout", "1e12", "request_timeout_s")])
def test_a_wait_the_daemon_cannot_keep_exits_2_before_serving(
        tmp_path, capsys, small_index, flag, value, field):
    """A finite wait past the lock-wait limit passes argparse; the
    settings check refuses it with a one-line error, not a traceback
    (or a daemon whose every request fails), and binds no socket."""
    index = tmp_path / "i.rpix"
    save_index(index, small_index)
    code = main(["serve", "--index", str(index), "--socket",
                 str(tmp_path / "d.sock"), flag, value])
    assert code == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not (tmp_path / "d.sock").exists()
