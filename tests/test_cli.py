import json
import os

import pytest

from pairedk import factorization
from pairedk.cli import build_parser, load_config, main
from pairedk.errors import MalformedConfig

A_JSON = '{"coeffs":{"-1":[1,0],"0":[1,0]}}'
B_JSON = '{"coeffs":{"0":[1,0],"1":[1,0]}}'
WH_G = json.dumps(
    {
        "gain": [1, 0],
        "zpow": 0,
        "zeros": [{"z": [2, 0], "m": 1}],
        "poles": [{"z": [0.5, 0], "m": 1}],
    }
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_kernel_paired_circle_zero_pair(capsys):
    code, data = run_cli(
        capsys, "kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON
    )
    assert code == 0
    assert data["status"] == "exact" and data["dimension"] == 1
    assert data["nontrivial"] is True
    # the witness is 1 - 1/z
    w = data["witness"]["coeffs"]
    assert w["0"] == [1.0, 0.0] and w["-1"] == [-1.0, 0.0]


def test_kernel_transposed_empty_with_certificate(capsys):
    code, data = run_cli(
        capsys, "kernel", "--type", "transposed", "--a", A_JSON, "--b", B_JSON
    )
    assert code == 0
    assert data["status"] == "empty" and data["dimension"] == 0
    side = data["certificate"]["side_conditions"]
    assert side == {"O_minus_over_a_in_L2": False, "O_plus_over_b_in_L2": False}


def test_factor_wh(capsys):
    code, data = run_cli(capsys, "factor", "--wh", "--g", WH_G)
    assert code == 0
    assert data["kappa"] == -1


def test_factor_wh_reports_a_failed_certificate_as_a_typed_error(monkeypatch, capsys):
    # break the factors wiener_hopf builds, not the check that reads them
    build = factorization.WHFactorization

    def doubled(g_minus, kappa, g_plus):
        return build(g_minus, kappa, g_plus * 2.0)

    monkeypatch.setattr(factorization, "WHFactorization", doubled)
    code = main(["factor", "--wh", "--g", WH_G])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: CertificateFailed: Wiener-Hopf product does not reproduce the symbol\n"


def test_apply_and_round_trip(capsys):
    code, data = run_cli(
        capsys,
        "apply",
        "--type",
        "paired",
        "--a",
        A_JSON,
        "--b",
        B_JSON,
        "--f",
        '{"coeffs":{"0":[1,0],"-1":[-1,0]}}',
    )
    assert code == 0
    assert data["is_zero"] is True


def test_norm_subcommand(capsys):
    code, data = run_cli(
        capsys, "norm", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "32"
    )
    assert code == 0
    assert 2.0 <= data["norm_lower_bound"] <= 2.0 * 2 ** 0.5 + 1e-9


def test_commutator_subcommand(capsys):
    code, data = run_cli(
        capsys,
        "commutator",
        "--type",
        "paired",
        "--a",
        A_JSON,
        "--b",
        B_JSON,
        "--g",
        '{"coeffs":{"1":[1,0]}}',
    )
    assert code == 0
    assert data["rank"] == 1


def test_verify_exit_code_and_report_rerender(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--property",
            "P_RANK1",
            "--trials",
            "3",
            "--seed",
            "1",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    capsys.readouterr()
    code2, data = run_cli(capsys, "report", "--f", str(out))
    assert code2 == 0
    assert data["all_pass"] is True


def test_verify_requires_target(capsys):
    assert main(["verify"]) == 2


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["commutator", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--g", '{"coeffs":{"1":[1,0]}}'],
        ["kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "16"],
    ],
    ids=["commutator", "kernel"],
)
def test_nonpositive_tol_is_usage_error(capsys, argv, value):
    assert main(argv + ["--tol", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rank_tol must be a positive number" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "16", "--tol", "2"],
        ["commutator", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--g", '{"coeffs":{"1":[1,0]}}', "--tol", "1"],
    ],
    ids=["kernel", "commutator"],
)
def test_rank_tol_of_one_or_more_is_usage_error(capsys, argv):
    # a threshold at or above sigma_max counts every singular value as noise
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rank_tol must be below 1" in captured.err


def test_config_rank_tol_of_one_or_more_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rank_tol": 1.5}))
    argv = ["kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "16"]
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rank_tol must be below 1" in captured.err


def test_human_lines_agree_between_verify_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--property", "P_ZERO", "--human", "--out", str(out), "--quiet"]) == 0
    verify_err = capsys.readouterr().err
    assert main(["report", "--f", str(out), "--human"]) == 0
    report_err = capsys.readouterr().err
    assert verify_err.splitlines() == ["# P_ZERO: 1/1 pass", "# all properties passed"]
    assert report_err == verify_err


def test_parser_is_built_once_and_reused_unchanged(capsys):
    # the parser is shared by every call in a process, so a usage error in
    # between must leave a repeated call's output byte for byte the same
    assert build_parser() is build_parser()
    argv = ["kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "16"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--type", "bogus"])
        assert exc.value.code == 2
        usage = capsys.readouterr()
        outputs.append((first.out, first.err, usage.out, usage.err))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith("{") and "invalid choice: 'bogus'" in outputs[0][3]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["kernel", "--type", "bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- config


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"oracle_N": 128, "trials": 10}))
    cfg = load_config(str(p))
    assert cfg == {"oracle_N": 128, "trials": 10}


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"oracle_M": 12}))
    with pytest.raises(MalformedConfig) as exc:
        load_config(str(p))
    assert "oracle_M" in str(exc.value)


def test_load_config_rejects_nonpositive(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"oracle_N": -1}))
    with pytest.raises(MalformedConfig):
        load_config(str(p))


def test_missing_config_file_is_usage_error(capsys):
    assert main(["verify", "--all", "--config", "/nonexistent/cfg.json"]) == 2


def test_config_env_fallback(tmp_path, capsys, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"trials": 2}))
    monkeypatch.setenv("PAIREDK_CONFIG", str(p))
    code = main(["verify", "--property", "P_ZERO", "--quiet"])
    assert code == 0


def test_symbol_json_round_trip_through_cli(tmp_path, capsys):
    # symbols printed by the CLI re-parse to probe-equivalent symbols
    code, data = run_cli(capsys, "factor", "--wh", "--g", WH_G)
    assert code == 0
    from pairedk import RationalSymbol
    from pairedk.rational import probe_points

    g_back = RationalSymbol.from_json(data["g_plus"])
    orig = RationalSymbol.from_json(json.loads(WH_G))
    fac_minus = RationalSymbol.from_json(data["g_minus"])
    prod = fac_minus * RationalSymbol.monomial(data["kappa"]) * g_back
    for t in probe_points(8):
        assert abs(prod.eval(t) - orig.eval(t)) <= 1e-11 * max(1.0, abs(orig.eval(t)))


def test_config_rank_tol_is_used_and_restored(tmp_path, capsys, monkeypatch):
    # the flag wins over the config file, which wins over the default; a
    # config applies to its own call only
    import pairedk.cli as cli
    from pairedk import tolerances as tol

    monkeypatch.delenv("PAIREDK_CONFIG", raising=False)
    seen = []
    oracle, rank = cli.kernel_oracle, cli.numerical_rank

    def spy_oracle(node, N):
        seen.append(("kernel", tol.RANK_TOL))
        return oracle(node, N)

    def spy_rank(M, rank_tol=None):
        seen.append(("commutator", tol.RANK_TOL if rank_tol is None else rank_tol))
        return rank(M, rank_tol)

    monkeypatch.setattr(cli, "kernel_oracle", spy_oracle)
    monkeypatch.setattr(cli, "numerical_rank", spy_rank)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rank_tol": 1e-8}))
    kernel = ["kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "16"]
    comm = ["commutator", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--g", '{"coeffs":{"1":[1,0]}}']
    for argv in (kernel, comm):
        assert main(argv + ["--config", str(cfg)]) == 0
        assert main(argv) == 0
        assert main(argv + ["--config", str(cfg), "--tol", "1e-9"]) == 0
    capsys.readouterr()
    assert seen == [(cmd, t) for cmd in ("kernel", "commutator") for t in (1e-8, 1e-10, 1e-9)]
    assert tol.RANK_TOL == 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "1"],
        ["norm", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "-5"],
    ],
    ids=["kernel-N1", "norm-N-5"],
)
def test_window_below_minimum_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: --N")


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["kernel", "--type", "hankel", "--g", A_JSON], "--type"),
        (["kernel", "--type", "paired", "--b", B_JSON], "--a"),
        (["kernel", "--type", "toeplitz"], "--g"),
        (["apply", "--type", "paired", "--a", A_JSON, "--b", B_JSON], "--f"),
        (["factor", "--wh"], "--g"),
        (["factor", "--wh", "--f", WH_G], "--g"),
        (["factor", "--side", "minus"], "--f or --g"),
        (["commutator", "--type", "toeplitz", "--g", A_JSON], "--type paired|transposed"),
        (["commutator", "--type", "hankel", "--g", A_JSON], "--type paired|transposed"),
        (["commutator", "--type", "paired", "--a", A_JSON, "--b", B_JSON], "--g"),
    ],
    ids=[
        "kernel-hankel",
        "kernel-paired-no-a",
        "kernel-toeplitz-no-g",
        "apply-no-f",
        "factor-wh-no-g",
        "factor-wh-f-only",
        "factor-no-symbol",
        "commutator-toeplitz",
        "commutator-hankel",
        "commutator-no-g",
    ],
)
def test_missing_or_unsupported_symbol_is_usage_error(capsys, argv, missing):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert missing in captured.err


@pytest.mark.parametrize(
    "symbol, error",
    [
        ('{"coeffs":{"0":1}}', "TypeError"),
        ('{"zpow":0,"zeros":[],"poles":[{"z":[0.5,0]}]}', "KeyError"),
        ('{"gain":[1],"zpow":0}', "IndexError"),
        ('{"gain":[1,0],"poles":[{"z":[0.5,0],"loc":"far"}]}', "ValueError"),
        ('{"gain":[1,0],"poles":[{"z":[2,0],"loc":"in"}]}', "ValueError"),
        ('{"gain":[1,0],"zeros":[{"z":[0.5,0],"m":0}]}', "ValueError"),
        ('{"gain":[1,0],"poles":[{"z":[0.5,0],"m":-1}]}', "ValueError"),
        ("[1, 2]", "TypeError"),
    ],
    ids=[
        "coeff-not-a-pair",
        "zpk-without-gain",
        "short-gain",
        "bad-location",
        "contradictory-location",
        "zero-multiplicity",
        "negative-multiplicity",
        "not-an-object",
    ],
)
def test_malformed_symbol_json_is_usage_error(capsys, tmp_path, symbol, error):
    path = tmp_path / "g.json"
    path.write_text(symbol)
    for g in (symbol, str(path)):
        assert main(["kernel", "--type", "toeplitz", "--g", g]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: bad symbol JSON")
        assert error in captured.err


def test_unreadable_symbol_file_is_usage_error(capsys, tmp_path):
    binary = tmp_path / "g.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    for g in (str(tmp_path), str(binary)):
        assert main(["kernel", "--type", "toeplitz", "--g", g]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: bad symbol JSON")


@pytest.mark.parametrize("kind", ["paired", "transposed"])
def test_kernel_query_factors_once_and_reads_its_witness_off_the_basis(monkeypatch, capsys, kind):
    import pairedk.cli as cli
    import pairedk.kernels as K

    calls = []
    real = K.wiener_hopf
    monkeypatch.setattr(K, "wiener_hopf", lambda g: calls.append(g) or real(g))

    def refuse(p):
        raise AssertionError("a kernel query decided nontriviality separately")

    for module in (K, cli):
        for name in ("nontrivial_S", "nontrivial_Sigma"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    # a = 1/z^2, b = z + 2: winding -2, both kernels two-dimensional
    a, b = '{"coeffs":{"-2":[1,0]}}', '{"coeffs":{"0":[2,0],"1":[1,0]}}'
    code, data = run_cli(capsys, "kernel", "--type", kind, "--a", a, "--b", b)
    assert code == 0 and len(calls) == 1
    assert data["dimension"] == 2 and data["nontrivial"] is True
    assert data["witness_checks"] == [{"witness_verified": True}]
    first = data["basis"][0]
    if kind == "paired":
        from pairedk import RationalSymbol

        first = (RationalSymbol.from_json(first["plus"]) + RationalSymbol.from_json(first["minus"])).to_json()
    assert data["witness"] == first


def test_kernel_query_makes_no_vector_svd(capsys, monkeypatch):
    # the oracle counts from singular values alone; no CLI field reads the
    # candidate vectors
    import numpy as np

    calls, svd = [], np.linalg.svd

    def spy_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    code, data = run_cli(capsys, "kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON, "--N", "64")
    assert code == 0 and data["oracle"]["dim_estimate"] == 1
    assert calls == [False, False]


def test_python_m_pairedk_matches_in_process_main(capsys):
    # the README's first kernel example, run as `python -m pairedk` from the
    # source tree
    import subprocess
    import sys
    from pathlib import Path

    argv = ["kernel", "--type", "paired", "--a", A_JSON, "--b", B_JSON]
    code = main(argv)
    out = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pairedk", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and json.loads(out)["dimension"] == 1
