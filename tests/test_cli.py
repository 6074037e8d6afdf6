"""Command-line behavior: outputs, formats, and exit statuses."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import dlocal
from dlocal import (
    HighestWeight,
    build_root_system,
    enumerate_decorated,
    pattern_contribution,
    weight_vector,
)
from dlocal.cli import _write, main
from dlocal.decoration import _strictness_failure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_published_coefficient(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--rank", "4", "--n", "2", "--twist", "0,1,2,0",
            "--coeff", "10,10,17,10",
        )
        assert code == 0
        assert out.strip() == "(-p^39+2*p^38-2*p^37+p^36)*g1^3"

    def test_rank2_untwisted_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--rank", "2", "--n", "1", "--twist", "0,0")
        assert code == 0
        assert out.splitlines() == ["0,0: 1", "0,1: -1", "1,0: -1", "1,1: 1"]

    def test_rank4_untwisted_support(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--rank", "4", "--n", "1", "--twist", "0,0,0,0",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["coefficients"]) == 601

    def test_twist_length_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--rank", "4", "--n", "2", "--twist", "0,1")
        assert code == 2
        assert "twist" in err

    def test_eval_p_is_labeled(self, capsys):
        code, out, _ = run(
            capsys,
            "compute", "--rank", "2", "--n", "1", "--twist", "1,1", "--eval-p", "3/2",
        )
        assert code == 0
        assert out.startswith("# evaluated at p = 3/2 (non-canonical output)")

    def test_output_file(self, capsys, tmp_path):
        # The file, stdout and to_json_str are the same pieces, written as they come.
        path = tmp_path / "part.json"
        argv = ["compute", "--rank", "3", "--n", "2", "--twist", "1,0,1", "--format", "json"]
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["rank"] == 3
        rs, hw = build_root_system(3), HighestWeight.from_twist((1, 0, 1))
        assert path.read_text() == out == dlocal.local_part(rs, hw, 2).to_json_str() + "\n"


class TestPatterns:
    def test_count_only_untwisted_rank4(self, capsys):
        code, out, _ = run(
            capsys, "patterns", "--rank", "4", "--twist", "0,0,0,0", "--count-only"
        )
        assert code == 0
        assert out.splitlines() == ["total 4096", "nonstrict 2216", "strict 1880"]

    def test_count_only_published_weight_class(self, capsys):
        code, out, _ = run(
            capsys,
            "patterns", "--rank", "4", "--twist", "0,1,2,0",
            "--weight", "10,10,17,10", "--count-only", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"total": 27, "nonstrict": 6, "strict": 21}

    def test_count_only_rank2(self, capsys):
        code, out, _ = run(capsys, "patterns", "--rank", "2", "--twist", "1,1", "--count-only")
        assert code == 0
        assert out.splitlines()[0] == "total 9"

    def test_stream_is_canonical_and_flagged(self, capsys):
        code, out, _ = run(capsys, "patterns", "--rank", "2", "--twist", "1,0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("0,0  weight=0,0  strict=yes")
        literals = [line.split()[0] for line in lines]
        assert literals == sorted(literals)

    def test_weight_length_usage_error(self, capsys):
        code, _, err = run(
            capsys, "patterns", "--rank", "3", "--twist", "0,0,0", "--weight", "1,2"
        )
        assert code == 2
        assert "--weight" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--twist", "0,0,0,0"),
                "835c6191b8afa7ccf510765a943d1072ec911e2e35f5bd6c2a58b80a4f352179",
            ),
            (
                ("--twist", "0,1,2,0", "--weight", "10,10,17,10"),
                "fb2ef4749dd04262c9e62fbeba1cffef0f64c7a567d4af9d1177bce8bdc63c72",
            ),
        ],
    )
    def test_json_listing_is_pinned(self, capsys, argv, digest):
        # sha256 of the listings made while every pattern passed __init__'s checks.
        code, out, _ = run(capsys, "patterns", "--rank", "4", *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExplain:
    def test_all_zero_pattern(self, capsys):
        code, out, _ = run(
            capsys,
            "explain", "--pattern", "0,0,0,0,0,0;0,0,0,0;0,0",
            "--twist", "0,0,0,0", "--n", "1",
        )
        assert code == 0
        assert "zero component -> 1" in out
        assert "contribution: p^0 * product = 1" in out
        assert "strict: yes" in out

    def test_rank2_corner_pattern(self, capsys):
        # Both entries at their bounds: two circled vertices, factors g/p.
        code, out, _ = run(
            capsys, "explain", "--pattern", "3,2", "--twist", "1,2", "--n", "3"
        )
        assert code == 0
        assert out.count("rightmost circled -> g/p") == 2
        assert "(3)" in out and "(2)" in out

    def test_bound_violation_names_position(self, capsys):
        code, _, err = run(
            capsys, "explain", "--pattern", "3,0", "--twist", "1,1", "--n", "2"
        )
        assert code == 2
        assert "row 1, column 1" in err and "bound 2" in err

    def test_nonstrict_pattern_reported(self, capsys):
        code, out, _ = run(
            capsys, "explain", "--pattern", "1,1,0,0;0,0", "--twist", "0,0,0", "--n", "2"
        )
        assert code == 0
        assert "strict: no" in out
        assert "circled zero" in out
        assert "excluded" in out

    def test_circled_asymmetric_leaner_edge_is_nonstrict(self, capsys):
        # Row 2's asymmetric leaner has its circled earlier endpoint at
        # column 3.  Exempting it counted this pattern's p^7 at (1,1,3,4,2),
        # where D5 n=1 then missed the product over positive roots.
        code, out, _ = run(
            capsys,
            "explain", "--pattern", "2,1,1,0,0,0,0,0;2,1,1,1,1,1;0,0,0,0;0,0",
            "--twist", "0,0,0,0,0", "--n", "1",
        )
        assert code == 0
        assert "ml_asymmetric" in out
        assert (
            "strict: no (circled entry at row 2, column 3 leans on its equal right neighbor)"
            in out
        )
        assert "excluded" in out

    def test_asymmetric_leaner_tag_names_the_rule_not_a_vertex(self, capsys):
        # Row 2's asymmetric leaner has its shorter-leg endpoint, (2, 6),
        # circled, a case no strict pattern reaches; the pattern is
        # nonstrict, and the tag claims no endpoint state.
        code, out, _ = run(
            capsys,
            "explain", "--pattern", "0,0,0,0,0,0,0,0;1,1,1,1,1,0;0,0,0,0;0,0",
            "--twist", "0,0,0,0,0", "--n", "2",
        )
        assert code == 0
        assert (
            "row 2 columns [2,3,4,5,6] value 1: ml_asymmetric; "
            "asymmetric leaner -> sigma(y) uncircled; factor = skipped"
        ) in out.splitlines()
        assert "endpoint" not in out
        assert "strict: no (circled zero at row 3, column 3)" in out

    def test_contribution_is_pattern_contribution(self, capsys):
        # The two contributing patterns of the published weight class.
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        contributing = [
            T
            for T, crit in enumerate_decorated(rs, hw, (10, 10, 17, 10))
            if _strictness_failure(T, crit) is None
            and not pattern_contribution(T, hw, 2).is_zero
        ]
        assert len(contributing) == 2
        for T in contributing:
            code, out, _ = run(
                capsys,
                "explain", "--pattern", T.to_string(), "--twist", "0,1,2,0", "--n", "2",
            )
            assert code == 0
            expected = (
                f"contribution: p^{sum(weight_vector(T))} * product = "
                f"{pattern_contribution(T, hw, 2)}"
            )
            assert expected in out.splitlines()

    def test_rank_cross_check(self, capsys):
        code, _, err = run(
            capsys,
            "explain", "--pattern", "1,0", "--twist", "0,0", "--n", "1", "--rank", "3",
        )
        assert code == 2
        assert "rank" in err


class TestVerify:
    def test_example2_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "example2")
        assert code == 0
        assert "suite example2: 4/4 cases passed" in out

    def test_tokuyama_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tokuyama", "--max-rank", "3")
        assert code == 0
        assert "suite tokuyama" in out

    def test_dimension_small(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "dimension", "--max-rank", "3", "--max-twist", "1",
        )
        assert code == 0

    def test_dimension_runs_d5_once(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "dimension", "--max-rank", "5", "--max-twist", "0",
        )
        assert code == 0
        assert "suite dimension: 4/4 cases passed" in out
        assert out.count("D5 twist (0, 0, 0, 0, 0)") == 1

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "example2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["suite"] == "example2"
        assert payload[0]["passed"] is True

    def test_failure_exits_one(self, capsys, monkeypatch):
        from dlocal import oracle
        from dlocal.oracle import VerificationReport

        def broken():
            report = VerificationReport("example2")
            report.add("forced", 1, 2)
            return report

        monkeypatch.setattr(oracle, "check_example2", broken)
        code, out, _ = run(capsys, "verify", "--suite", "example2")
        assert code == 1
        assert "[FAIL]" in out

    def test_tokuyama_max_rank_reaches_suite(self, capsys, monkeypatch):
        from dlocal import oracle
        from dlocal.oracle import VerificationReport

        ranks = []

        def recording(max_rank):
            ranks.append(max_rank)
            return VerificationReport("tokuyama")

        monkeypatch.setattr(oracle, "check_tokuyama", recording)
        code, _, _ = run(capsys, "verify", "--suite", "tokuyama", "--max-rank", "5")
        assert code == 0
        assert ranks == [5]

    @pytest.mark.parametrize(
        "argv, check, expected",
        [
            (["--suite", "dimension"], "check_dimension", {}),
            (["--suite", "dimension", "--max-twist", "1", "--max-n", "9"], "check_dimension",
             {"max_twist": 1}),
            (["--suite", "tokuyama", "--max-twist", "5", "--max-n", "9"], "check_tokuyama", {}),
            (["--suite", "rank2", "--max-n", "2", "--max-rank", "9"], "check_rank2",
             {"max_n": 2}),
            (["--suite", "rank2", "--max-twist", "0"], "check_rank2", {"max_twist": 0}),
        ],
    )
    def test_only_given_grid_flags_reach_the_suite(self, capsys, monkeypatch, argv, check,
                                                   expected):
        # A flag left out is not passed, so the check's own defaults hold.
        from dlocal import oracle
        from dlocal.oracle import VerificationReport

        calls = []

        def recording(**kwargs):
            calls.append(kwargs)
            report = VerificationReport("recorded")
            report.add("case", 1, 1)
            return report

        monkeypatch.setattr(oracle, check, recording)
        code, _, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert calls == [expected]

    def test_rank2_flags_only_widen_the_rank1_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rank2", "--max-twist", "0", "--max-n", "1")
        assert code == 0
        assert out.count("rank-1 twist") == 11 * 6  # the default grid, twist <= 10, n <= 6
        code, out, _ = run(capsys, "verify", "--suite", "rank2", "--max-twist", "0", "--max-n", "7")
        assert code == 0
        assert "[PASS] rank-1 twist 0 n=7: closed form == brute force" in out
        assert out.count("rank-1 twist") == 11 * 7

    def test_unknown_suite_is_usage_error(self, capsys):
        code = main(["verify", "--suite", "nope"])
        capsys.readouterr()
        assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["compute", "--rank", "2", "--n", "0", "--twist", "0,0"], id="n-zero"),
        pytest.param(["compute", "--rank", "1", "--n", "1", "--twist", "0"], id="rank-one"),
        pytest.param(["patterns", "--rank", "1", "--twist", "0"], id="patterns-rank-one"),
        pytest.param(
            ["explain", "--pattern", "1,0", "--twist", "1,1", "--n", "0"], id="explain-n-zero"
        ),
        pytest.param(
            ["compute", "--rank", "3", "--n", "1", "--twist", "0,0,0", "--coeff=-1,0,0"],
            id="negative-coeff",
        ),
        pytest.param(
            ["compute", "--rank", "2", "--n", "1", "--twist", "0,0", "--output", "/nonexistent/x"],
            id="unwritable-output",
        ),
        pytest.param(
            ["verify", "--suite", "example2", "--output", "/nonexistent/x"],
            id="verify-unwritable-output",
        ),
        pytest.param(
            ["compute", "--rank", "2", "--n", "1", "--twist", "0,0", "--eval-p", "2",
             "--format", "json"],
            id="eval-p-json",
        ),
        pytest.param(
            ["compute", "--rank", "2", "--n", "1", "--twist", "0,0", "--eval-p", "2",
             "--coeff", "0,0"],
            id="eval-p-coeff",
        ),
        pytest.param(["verify", "--suite", "tokuyama", "--max-rank", "1"], id="tokuyama-rank-one"),
        pytest.param(
            ["verify", "--suite", "dimension", "--max-rank", "1"], id="dimension-rank-one"
        ),
        pytest.param(
            ["verify", "--suite", "dimension", "--max-rank", "3", "--max-twist", "-1"],
            id="dimension-negative-twist",
        ),
        pytest.param(
            ["verify", "--suite", "rank2", "--max-twist", "-1"], id="rank2-negative-twist"
        ),
        pytest.param(["verify", "--suite", "rank2", "--max-n", "0"], id="rank2-n-zero"),
        pytest.param(["compute", "--rank", "2", "--n", "abc", "--twist", "0,0"], id="n-not-int"),
        pytest.param(
            ["compute", "--rank", "2", "--n", "1", "--twist", "1,1", "--eval-p", "1/0"],
            id="eval-p-zero-denominator",
        ),
        pytest.param(
            ["compute", "--rank", "2", "--n", "99999999999999999999", "--twist", "0,0",
             "--coeff", "1,1"],
            id="compute-huge-n",
        ),
        pytest.param(
            ["explain", "--pattern", "1,0", "--twist", "1,1", "--n", "99999999999999999999"],
            id="explain-huge-n",
        ),
        # (0,) * (n - 1) raises MemoryError at once for this n, without allocating.
        pytest.param(
            ["compute", "--rank", "2", "--n", "2000000000000000000", "--twist", "0,0"],
            id="compute-n-too-large-to-allocate",
        ),
        pytest.param(
            ["explain", "--pattern", "1,0,0,0;0,0", "--twist", "0,0,0", "--n",
             "2000000000000000000"],
            id="explain-n-too-large-to-allocate",
        ),
        pytest.param(
            ["compute", "--rank", "2", "--n", "1", "--twist", "0,0", "--jobs", "2"],
            id="unknown-flag",
        ),
        pytest.param(["compute", "--rank", "2", "--n", "1"], id="missing-twist"),
        pytest.param(["verify", "--suite", "nope"], id="unknown-suite"),
        pytest.param(["compute", "--rank", "2", "--n", "1", "--twist", "0,x"], id="twist-not-int"),
        pytest.param(
            ["compute", "--rank", "0", "--n", "1", "--twist", "0"], id="rank-zero-long-twist"
        ),
        pytest.param(
            ["compute", "--rank", "1", "--n", "1", "--twist", "0,0"], id="rank-one-long-twist"
        ),
        pytest.param(
            ["patterns", "--rank", "1", "--twist", "0,0", "--count-only"],
            id="patterns-rank-one-long-twist",
        ),
        # The listing is streamed: its weight is checked before "[" is written.
        pytest.param(
            ["patterns", "--rank", "3", "--twist", "0,0,0", "--weight=-1,0,0"],
            id="patterns-negative-weight",
        ),
        pytest.param(
            ["patterns", "--rank", "3", "--twist", "0,0,0", "--weight=-1,0,0", "--format", "json"],
            id="patterns-negative-weight-json",
        ),
        pytest.param(
            ["compute", "--rank", "2", "--n", "1", "--twist", "1,1", "--eval-p", "0"],
            id="eval-p-zero",
        ),
    ],
)
def test_bad_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--rank", "3", "--n", "1", "--twist", "0,0,0", "--coeff=-1,0,0"],
        ["compute", "--rank", "2", "--n", "1", "--twist", "1,1", "--eval-p", "0"],
        ["patterns", "--rank", "3", "--twist", "0,0,0", "--weight=-1,0,0", "--format", "json"],
        ["patterns", "--rank", "3", "--twist", "0,0", "--weight", "1,1,1"],
    ],
    ids=["compute-negative-coeff", "compute-eval-p-zero", "patterns-negative-weight",
         "patterns-twist-length"],
)
def test_usage_error_creates_no_output_file(capsys, tmp_path, argv):
    path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not path.exists()


def test_write_opens_nothing_before_the_first_piece(capsys, tmp_path):
    def failing():
        raise ValueError("raised making the first piece")
        yield

    path = tmp_path / "out"
    for target in (str(path), None):
        with pytest.raises(ValueError):
            _write(failing(), target)
    assert not path.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["compute", "patterns"])
@pytest.mark.parametrize("rank, twist", [("0", "0"), ("1", "0,0"), ("-1", "0")])
def test_rank_error_comes_before_twist_length(capsys, command, rank, twist):
    n = ["--n", "1"] if command == "compute" else []
    code, out, err = run(capsys, command, "--rank", rank, "--twist", twist, *n)
    assert (code, out, err) == (2, "", f"error: rank must be >= 2, got {rank}\n")


def closed_stdout(*command):
    """Status and stderr of a dev-mode CLI run whose reader leaves after 100 bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dlocal.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "dlocal.cli"]
    with subprocess.Popen(
        argv + list(command), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
    return proc.returncode, err


def test_closed_stdout_exits_quietly():
    # The reader leaves after 100 bytes of a 127 kB text, more than a pipe
    # holds: no error line, no "Exception ignored" at shutdown, status 0.
    argv = ["compute", "--rank", "4", "--n", "2", "--twist", "0,1,2,0"]
    assert closed_stdout(*argv) == (0, b"")


def test_closed_stdout_mid_listing_exits_quietly():
    # The 45 MB listing is written as it is produced, so the pipe breaks
    # while patterns are still being enumerated.
    argv = ["patterns", "--rank", "4", "--twist", "0,1,2,0", "--format", "json"]
    assert closed_stdout(*argv) == (0, b"")
