import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from necklacekit import (
    QuiverFormatError,
    double,
    parse_dim_vector,
    parse_necklace,
    parse_path,
    parse_quiver_text,
    parse_weight,
)
from necklacekit import cli
from necklacekit.cli import build_parser, main
from necklacekit.quiver import WORK_CAP
from necklacekit.textio import MAX_ARROWS, MAX_VERTICES

from conftest import run_measured

CALOGERO_TEXT = """\
# the two-vertex quiver with one connecting arrow and one loop
vertices: 2
arrows: a 1 2, b 2 2
"""


@pytest.fixture()
def calogero_file(tmp_path):
    path = tmp_path / "calogero.quiver"
    path.write_text(CALOGERO_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "loop.quiver"
    path.write_text("vertices: 1\narrows: x 1 1\n", encoding="utf-8")
    return str(path)


def test_parse_quiver_text():
    q = parse_quiver_text(CALOGERO_TEXT)
    assert q.vertex_count == 2
    assert [(a.label, a.source, a.target) for a in q.arrows] == [("a", 1, 2), ("b", 2, 2)]
    empty = parse_quiver_text("vertices: 1\narrows:\n")
    assert empty.arrows == ()


def test_parse_quiver_errors_carry_line_numbers():
    with pytest.raises(QuiverFormatError, match=":2:.*reserved star suffix"):
        parse_quiver_text("vertices: 1\narrows: a* 1 1\n")
    with pytest.raises(QuiverFormatError, match=":3:.*reserved star suffix"):
        parse_quiver_text("vertices: 2\narrows: a 1 2\narrows: b* 2 1\n")
    with pytest.raises(QuiverFormatError, match=":3:.*duplicate"):
        parse_quiver_text("vertices: 2\narrows: a 1 2\narrows: a 2 1\n")
    with pytest.raises(QuiverFormatError, match=":2:.*outside"):
        parse_quiver_text("vertices: 2\narrows: a 1 5\n")
    with pytest.raises(QuiverFormatError, match="missing 'vertices:'"):
        parse_quiver_text("# nothing here\n")
    with pytest.raises(QuiverFormatError, match=":1:"):
        parse_quiver_text("vertices: none\n")


def test_parse_quiver_refuses_sizes_above_the_caps():
    assert parse_quiver_text(f"vertices: {MAX_VERTICES}\n").vertex_count == MAX_VERTICES
    for count in (MAX_VERTICES + 1, 1000000):
        with pytest.raises(QuiverFormatError, match=f":1: vertex count {count} exceeds the cap"):
            parse_quiver_text(f"vertices: {count}\n")
    loops = [f"x{i} 1 1" for i in range(MAX_ARROWS + 1)]
    accepted = parse_quiver_text("vertices: 1\narrows: " + ", ".join(loops[:-1]) + "\n")
    assert len(accepted.arrows) == MAX_ARROWS
    text = "vertices: 1\narrows: " + ", ".join(loops[:-1]) + "\narrows: " + loops[-1] + "\n"
    message = f":3: arrow count exceeds the cap of {MAX_ARROWS}"
    with pytest.raises(QuiverFormatError, match=message):
        parse_quiver_text(text)


@pytest.mark.parametrize("text", ["vertices: 1000000\n", f"vertices: {MAX_VERTICES + 1}\n"])
def test_cli_refuses_an_oversized_quiver_file(text, tmp_path, capsys):
    path = tmp_path / "huge.quiver"
    path.write_text(text, encoding="utf-8")
    assert main(["info", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "exceeds the cap" in captured.err


def test_parse_path_and_necklace():
    q = double(parse_quiver_text(CALOGERO_TEXT))
    p = parse_path(q, "a b a*")
    assert p.arrows == ("a", "b", "a*")
    assert str(parse_path(q, "e2")) == "e2"
    with pytest.raises(ValueError, match="ends at vertex 2 but 'a' starts at vertex 1"):
        parse_path(q, "a a")
    word = parse_necklace(q, "b a* a")
    assert word.arrows == ("a", "b", "a*")  # canonicalized rotation
    with pytest.raises(ValueError, match="not closed"):
        parse_necklace(q, "a")


def test_parse_vectors():
    assert parse_dim_vector("1,2", 2) == (1, 2)
    assert parse_weight("-1/2, 3", 2) == (__import__("fractions").Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        parse_dim_vector("1,2,3", 2)
    with pytest.raises(ValueError):
        parse_dim_vector("1,-2", 2)
    with pytest.raises(ValueError):
        parse_weight("0.5x,1", 2)


def test_cli_info(calogero_file, capsys):
    assert main(["info", calogero_file]) == 0
    out = capsys.readouterr().out
    assert "euler form" in out and "[ 2 -1]" in out


def test_cli_classify_json_roundtrip(calogero_file, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    rc = main(
        ["classify", calogero_file, "--lambda", "-2,1", "--alpha", "1,2", "--json", str(json_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    report = json.loads(json_path.read_text(encoding="utf-8"))
    assert report["schema"] == "necklace-kit/1"
    assert report["coadjoint"] is True
    assert report["dim_fiber"] == 8
    assert report["dim_quotient"] == 4
    # text and JSON agree on the numbers
    assert "dim fiber: 8" in out
    assert "dim quotient: 4" in out


def test_cli_bracket(loop_file, capsys):
    assert main(["bracket", loop_file, "--w1", "x x", "--w2", "x* x*"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "4 [x x*]"


def test_cli_roots_table(calogero_file, capsys):
    assert main(["roots", calogero_file, "--box", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "(1, 0)  real" in out
    assert "(2, 3)  imaginary" in out
    assert "total: 9 (1 real, 8 imaginary)" in out


def test_cli_sigma_witness(calogero_file, capsys):
    assert main(["sigma", calogero_file, "--alpha", "0,2", "--lambda", "0,0"]) == 0
    out = capsys.readouterr().out
    assert "in S_lambda: False" in out
    assert "violated by" in out


def test_cli_derham_karoubi(loop_file, capsys):
    assert main(["derham", loop_file, "--max-degree", "2", "--max-length", "3"]) == 0
    out = capsys.readouterr().out
    assert "0  0    1" in out  # vertex class in homology degree 0, length 0
    assert main(["karoubi", loop_file, "--max-degree", "0", "--max-length", "2"]) == 0
    out = capsys.readouterr().out
    assert "0  2    3" in out


def test_cli_moment(calogero_file, capsys):
    rc = main(
        ["moment", calogero_file, "--alpha", "1,2", "--lambda", "-2,1", "--seeds", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged: 2/2" in out
    assert "rank 4, fiber dim 8" in out


def test_cli_moment_accepts_the_largest_tolerances(calogero_file, capsys):
    # 10 * tol, the rank check's residual tolerance, overflows to inf here
    argv = ["moment", calogero_file, "--alpha", "1,2", "--lambda", "-2,1", "--seeds", "1"]
    assert main(argv + ["--tol", "1e308", "--svd-tol", "1e308"]) == 0
    out = capsys.readouterr().out
    assert "converged in 0 iterations" in out and "rank 0, fiber dim 12" in out


def test_cli_moment_reports_the_rank_gap_in_json_only(calogero_file, tmp_path, capsys):
    json_path = tmp_path / "moment.json"
    argv = ["moment", calogero_file, "--alpha", "1,2", "--lambda", "-2,1", "--seeds", "2"]
    assert main(argv + ["--json", str(json_path)]) == 0
    assert "gap" not in capsys.readouterr().out
    for entry in json.loads(json_path.read_text(encoding="utf-8"))["results"]:
        assert entry["converged"]
        values, rank = entry["singular_values"], entry["jacobian_rank"]
        assert values[rank] == 0.0 and entry["rank_gap"] == math.inf
        assert values[rank - 1] > 1e-3 * values[0]


def test_cli_domain_error_exit_code(calogero_file, capsys):
    rc = main(["classify", calogero_file, "--lambda", "1,1,1", "--alpha", "1,2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_cli_usage_error_exit_code(calogero_file):
    with pytest.raises(SystemExit) as exc:
        main(["classify", calogero_file, "--lambda", "-2,1", "--alpha", "1,2", "--nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--alpha", "1,2"],
        ["classify", "--alpha", "1,2"],
        ["moment", "--alpha", "1,2", "--seeds", "2"],
    ],
)
def test_a_weight_starting_with_minus_point_needs_no_equals_sign(
    argv, calogero_file, tmp_path, capsys
):
    answers = []
    for index, weight in enumerate([["--lambda", "-.5,0.25"], ["--lambda=-.5,0.25"]]):
        report = tmp_path / f"{index}.json"
        assert main([argv[0], calogero_file, *argv[1:], *weight, "--json", str(report)]) == 0
        answers.append((capsys.readouterr(), report.read_bytes()))
    assert answers[0] == answers[1]
    assert "lambda = (-.5,0.25)" in answers[0][0].out


@pytest.mark.parametrize("value", ["-", "-.", "-x", "-.x", "--", "-..5"])
def test_values_that_do_not_start_like_a_negative_number_stay_apart(value):
    argv = ["sigma", "q.quiver", "--lambda", value]
    assert cli._absorb_negative_values(argv) == argv


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["karoubi", "--help"],
        [],
        ["no-such-command", "q.quiver"],
        ["classify", "q.quiver", "--alpha", "1,2", "--nope"],
        ["derham", "q.quiver", "--max-length", "x"],
    ],
)
def test_cli_answers_like_a_fresh_parser(argv, capsys):
    answers = []
    for parse in (main, main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        answers.append((exc.value.code, capsys.readouterr()))
    assert answers[0] == answers[1] == answers[2]


def test_cli_parses_later_calls_afresh(loop_file, capsys):
    assert main(["karoubi", loop_file, "--base", "--max-degree", "0", "--max-length", "1"]) == 0
    capsys.readouterr()
    # no flag of the first call carries over: the double, up to length 4
    assert main(["karoubi", loop_file, "--max-degree", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[2] for row in rows] == ["1", "2", "3", "4", "6"]


def _mixed_calls(calogero: str, loop: str) -> list[list[str]]:
    """Every subcommand, each flag given in one call and left to its default
    in the next, a help request, a usage error and a domain error."""
    sigma = ["sigma", calogero, "--alpha", "1,2", "--lambda", "-2,1"]
    classify = ["classify", calogero, "--alpha", "2,4", "--lambda", "-2,1"]
    moment = ["moment", calogero, "--alpha", "1,2", "--lambda", "-2,1"]
    tables = [
        [command, loop, "--max-degree", "1", "--max-length", "3"]
        for command in ("derham", "karoubi")
    ]
    return [
        ["info", calogero],
        ["info", loop],
        ["roots", calogero, "--box", "2,3"],
        ["roots", loop, "--box", "3"],
        sigma,
        ["sigma", loop, "--alpha", "2", "--lambda", "0"],
        classify,
        ["classify", loop, "--alpha", "2", "--lambda", "0"],
        ["bracket", loop, "--w1", "x x", "--w2", "x* x*"],
        tables[0] + ["--base"],
        tables[0],
        tables[1] + ["--base"],
        tables[1],
        tables[1] + ["--max-degree", "0", "--max-length", "1", "--base"],
        moment + ["--seeds", "2", "--tol", "1e-6"],
        moment,
        classify + ["--nope"],
        ["classify", calogero, "--alpha", "1,2", "--lambda", "1,1,1"],
        ["sigma", "--help"],
        sigma + ["--lambda", "0,0"],
        ["karoubi", loop, "--max-length", "2"],
        ["roots", loop, "--box", "1,1"],
        classify + ["--lambda", "0,0"],
    ]


def _answers(calls: list[list[str]], out_dir, capsys) -> list[tuple]:
    """(exit code, stdout, stderr, --json bytes) of each call, in one process."""
    out_dir.mkdir()
    answers = []
    for index, argv in enumerate(calls):
        report = out_dir / f"{index}.json"
        try:
            code = main(argv + ["--json", str(report)])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        answers.append((code, out, err, report.read_bytes() if report.exists() else None))
    return answers


def test_cached_parser_carries_no_state_between_calls(
    calogero_file, loop_file, tmp_path, capsys, monkeypatch
):
    calls = _mixed_calls(calogero_file, loop_file)
    assert len(calls) >= 20
    assert {argv[0] for argv in calls} == set(cli.COMMANDS)
    cached = _answers(calls, tmp_path / "cached", capsys)
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = _answers(calls, tmp_path / "fresh", capsys)
    assert cached == fresh
    codes = [answer[0] for answer in cached]
    assert codes.count(0) >= 15 and 1 in codes and 2 in codes
    assert sum(answer[3] is not None for answer in cached) >= 15


def test_cli_help_follows_the_terminal_width(monkeypatch, capsys):
    answers = []
    for columns in ("50", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(["karoubi", "--help"])
            assert exc.value.code == 0
            answers.append(capsys.readouterr().out)
    narrow, narrow_fresh, wide, wide_fresh = answers
    assert narrow == narrow_fresh
    assert wide == wide_fresh
    assert len(narrow.splitlines()) > len(wide.splitlines())


MOMENT_ARGS = ["moment", "--alpha", "1,2", "--lambda", "-2,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["derham", "--max-length", "-1"],
        ["derham", "--max-degree", "-1"],
        MOMENT_ARGS + ["--seeds", "-2"],
        MOMENT_ARGS + ["--seeds", "0"],
        MOMENT_ARGS + ["--max-iter", "0"],
        MOMENT_ARGS + ["--tol", "nan"],
        MOMENT_ARGS + ["--tol", "inf"],
        MOMENT_ARGS + ["--tol", "0"],
        MOMENT_ARGS + ["--svd-tol", "-0.5"],
    ],
    # each case keeps its number from the list that also held six cases of
    # the retired --threads, --entry-cap and --candidate-cap flags
    ids=[f"argv{i}" for i in (0, 1, *range(8, 15))],
)
def test_cli_refuses_out_of_range_numeric_flags(argv, calogero_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], calogero_file] + argv[1:])
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_cli_moment_refuses_an_oversized_alpha(calogero_file, capsys):
    argv = ["moment", calogero_file, "--alpha", "200,400", "--lambda", "-2,1", "--seeds", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap is 16777216 entries" in err


LOOPED_TEXT = """\
# two loops at each vertex and the arrows 1 -> 2 -> 3
vertices: 3
arrows: a 1 1, b 1 1, c 2 2, d 2 2, f 3 3, g 3 3, h 1 2, i 2 3
"""


@pytest.mark.parametrize(
    "text, alpha",
    [(LOOPED_TEXT, "6,6,6"), ("vertices: 2\narrows: a 1 2, b 2 1\n", "2000,1999")],
    ids=["looped", "a1_tilde"],
)
def test_cli_refuses_work_above_the_budget(text, alpha, tmp_path, capsys):
    path = tmp_path / "q.quiver"
    path.write_text(text, encoding="utf-8")
    zero = ",".join("0" for _ in alpha.split(","))
    assert main(["classify", str(path), "--alpha", alpha, "--lambda", zero]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the computation needs more than {WORK_CAP} steps\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["derham", "--max-degree", "3000", "--max-length", "300"],
        ["karoubi", "--max-length", "353"],
        ["karoubi", "--max-length", "100000"],
        ["derham", "--max-degree", str(10**30)],
    ],
)
def test_cli_refuses_tables_above_the_budget(argv, calogero_file, capsys):
    assert main([argv[0], calogero_file, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the computation needs more than {WORK_CAP} steps\n"


@pytest.mark.parametrize("command", ["derham", "karoubi"])
def test_cli_answers_the_largest_degree_three_table(command, calogero_file, tmp_path):
    # 4 degrees of 353 lengths, a step per cell plus its length: 249,924 steps
    json_path = tmp_path / "table.json"
    assert main([command, calogero_file, "--max-length", "352", "--json", str(json_path)]) == 0
    table = json.loads(json_path.read_text(encoding="utf-8"))["table"]
    assert len(table) == 4 * 353
    assert (table[-1]["degree"], table[-1]["length"]) == (3, 352)


def test_a_refused_process_stays_small(tmp_path):
    # the longest descent the budget allows, through the entry point, in a
    # process that reports its own peak resident set size
    path = tmp_path / "a1_tilde.quiver"
    path.write_text("vertices: 2\narrows: a 1 2, b 2 1\n", encoding="utf-8")
    argv = ["classify", str(path), "--alpha", "1000000,999999", "--lambda", "0,0"]
    script = f"from necklacekit.cli import main\nprint(main({argv!r}))\n"
    lines, stderr, peak_kib = run_measured(script)
    assert lines == ["1"] and stderr.startswith("error: the computation needs more than")
    assert peak_kib < 200 * 1024


def test_cli_json_determinism(calogero_file, tmp_path):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        rc = main(
            [
                "moment",
                calogero_file,
                "--alpha",
                "1,2",
                "--lambda",
                "-2,1",
                "--seeds",
                "3",
                "--json",
                str(path),
            ]
        )
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["info"],
        ["roots", "--box", "2,3"],
        ["sigma", "--alpha", "1,2", "--lambda", "-2,1"],
        ["classify", "--alpha", "1,2", "--lambda", "-2,1"],
        ["derham", "--max-degree", "1", "--max-length", "2"],
        ["karoubi", "--max-degree", "1", "--max-length", "2"],
        ["moment", "--alpha", "1,2", "--lambda", "-2,1", "--seeds", "1"],
    ],
)
def test_cli_every_report_carries_schema(argv, calogero_file, tmp_path, capsys):
    json_path = tmp_path / "out.json"
    rc = main([argv[0], calogero_file] + argv[1:] + ["--json", str(json_path)])
    assert rc == 0
    report = json.loads(json_path.read_text(encoding="utf-8"))
    assert report["schema"] == "necklace-kit/1"
    assert report["command"] == argv[0]
    assert report["quiver"]["vertices"] == 2


def test_cli_bracket_schema(loop_file, tmp_path, capsys):
    json_path = tmp_path / "bracket.json"
    rc = main(
        ["bracket", loop_file, "--w1", "x x", "--w2", "x* x*", "--json", str(json_path)]
    )
    assert rc == 0
    report = json.loads(json_path.read_text(encoding="utf-8"))
    assert report["schema"] == "necklace-kit/1"
    assert report["result"] == [["[x x*]", "4"]]


def test_cli_entry_point_subprocess(calogero_file):
    proc = subprocess.run(
        [sys.executable, "-m", "necklacekit.cli", "info", calogero_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tits form" in proc.stdout


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("**/*.json")), ids=lambda path: path.name
)
def test_json_writer_matches_json_dumps_on_the_golden_reports(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert cli._json_text(report) == json.dumps(report, indent=2)
    assert (cli._json_text(report) + "\n").encode() == path.read_bytes()


def test_json_writer_matches_json_dumps_on_the_sweep_corpus(monkeypatch, tmp_path):
    """Every report the sweep of tests/sweep.py writes, and the values the
    reports never hold but json writes in its own way."""
    import sweep

    reports = []

    def recording(command):
        def run(q, args):
            report = command(q, args)
            reports.append(report)
            return report

        return run

    for name, command in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name, recording(command))
    monkeypatch.chdir(tmp_path)
    sweep.sweep()
    assert {report["command"] for report in reports} == set(cli.COMMANDS)
    for report in reports:
        assert cli._json_text(report) == json.dumps(report, indent=2)
    odd = {
        "": [math.inf, -math.inf, math.nan, -0.0, 1e-300, 2**70, True, None],
        "\u00e9\n\"": [[], {}, (1, "x"), [[{}]], {"a": []}],
    }
    assert cli._json_text(odd) == json.dumps(odd, indent=2)
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli._json_text({"x": {1}})
