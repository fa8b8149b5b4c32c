import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import quadlcm.cli as cli
from quadlcm import bounds

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def load_schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


# sha256 of `quadlcm bezout --c C --k K` stdout, captured before the polynomial
# core went fraction-free; (3, 10), (3, 15) and (3, 25) are also the
# bezout_ladder output hashes in perfbench/baseline.json
BEZOUT_SHA256 = {
    (1, 0): "45bdaf98d63c1be8fc883e922fd0a3ff58a1ba5f38a72a516a9832b06859618b",
    (1, 1): "88f0d160e4d9b46efa25809b753622d4bae83b21954a3b330ee8c50fd0cac820",
    (1, 2): "6c58fddab42b4034eb3c3a09b2d739f4483c9774bdaa61f6cea1e661f53f6126",
    (1, 7): "5409edd3691db45b207a3a2afb2149e9eeb5e6e12b2389a9b02bcb22a86a1977",
    (1, 15): "ae02273d1e122ec9f41f54c408af1a96982e3d2c7d9f8928a5cbce32cd8169b1",
    (1, 25): "02c4c549e46cd52e5ebeb3a326bdfdaa95d54ddbef6ee9750c7972c544b90abf",
    (2, 0): "0ef3682a2c067f064d3f2de9a1eb229268f98304bcc9eb393da6d42d726c72c7",
    (2, 1): "1e3095fdc48c0fda9f20dae9b5672b0099826bb86dd437831a0acae583f939b0",
    (2, 2): "50573d321b400ae1861a7b16da67d37bb1e10b93698e87bf751a6412453a2b1a",
    (2, 7): "a60ee425f9b03dc9011d755bd5593fe8364bf5887e62a2eb8d94d35893564e4f",
    (2, 15): "7cc9f190243a80a40474650a613efd5bc7641413d9ed31ea46e84bd3790c5f08",
    (2, 25): "2ebfe1dad1d2f9c85eb754c8972b68f0da3090efab363afb4f2227a1bacda58a",
    (3, 0): "616ccb0c0c736f09d7cc9ebd77a8a6037798ec44523b3c8d5b910ac20a2971ed",
    (3, 1): "3fc6f86b486f52c3087f06d8392464a5d4c5f9a0933152270e3f59afb3ec8b59",
    (3, 2): "dedbfb636572e383967b495ba35b1712735872d3e13ba71327b420b29d150b39",
    (3, 7): "2ca3f2febcbda3c7f521a005307723fbb4b3e7533d53ebb3e3c4e61537b3745b",
    (3, 10): "9313c054003afe3994b2b3987ebb8e1fd0d5dea4d555238cbf3507a0bfeb1b23",
    (3, 15): "9a9e1d015ff04a8ff935e90585d1465702ed0d298b42dffe53fc045be11d677c",
    (3, 25): "8dc2c9b7c35f96a6b9d2ddccffe56574c3e4fb0c9332ffd40d12bdff89eb30a7",
    (4, 0): "5627442eae9b943872ae6261f75b68e59a5e606659ab25d7fca25918562dabcf",
    (4, 1): "adc4abee9e8f9408e6f22aa2cb76a0373bb6afa86866e320deba3905efa72564",
    (4, 2): "f424951f6244b688cf066c8595e2e7368480118035bdc73a149f4240738f3e40",
    (4, 7): "844eaa417ac693209775ce8fe9685e0a9467491249d1a7e8da9628626894c884",
    (4, 15): "44703208d563fb6c7b067e0aa5acaff1b13e5b58faed84ba7909749275a45081",
    (4, 25): "25042218adc0bdf5d1a6826c203e815afee87c0fb8e6cccc6c23be58df8ab1c1",
    (5, 0): "21709ebf24e93d33aee7d7770b0f171976918215d2876475f311f98add7db8d8",
    (5, 1): "e04ffc847ea105cee9b0594bcecc4d6a067c3107ff9790537514bc4f3c267d09",
    (5, 2): "f3370b4b93f7bf7fbce30f88df1118487f93e5274aa4e46e36b8f1559b1e09fe",
    (5, 7): "4abf405fc9cf7a985b1f3610c2fff1158e62c9f79f96c459f4f06cc56e4c48db",
    (5, 15): "5f64195ba5eeb3bc49fcfa277ce672e66cefd45de928d25b8e26ea7755f1c700",
    (5, 25): "7aebf24ecee2b673c84f2c32cbb113ac045b2a3b99e790e7fba98f83cb5d9c30",
}


# sha256 of `quadlcm table` / `quadlcm sweep` stdout, captured before the
# bound prefactors were memoised; table c=1 and the `all` and `half_ceil`
# sweeps are also output hashes in perfbench/baseline.json
TABLE_SHA256 = {
    1: "0c1bc87b0de97e493b88240c18a2fdc8bfcc1d5d169b547c2a5cc71ff1db5c2f",
    2: "3ab6cb6005d88740d2f22db10c1eca14d6c042e98273cc697a6bb57ac7157db5",
    3: "266fd5299910a97fe853e62566ee1a2a176b9fe4523381eee22bb09413418037",
}
SWEEP_SHA256 = {
    ("all", 40, "csv"): "4b33f98b5820501248e5e3845c9df6df681145716feedfbd516b110b5211dc1f",
    ("half_ceil", 260, "json"): "ab509a2cfe3dd77a54c453d2ff422aeb5cb56e09615771f565652b07fb611408",
    ("frontier", 220, "csv"): "87615b1babe6846140edfbee9fb2a50712248b00ed34dc4da82da259e2bbbd49",
}
# sha256 of `quadlcm verify --c C --m M --n N` stdout, captured before the
# three parts of a triple's record were built from one L
VERIFY_SHA256 = {
    (1, 1, 1): "9c6831d1ed8f9bbb71270e32312fe26a1ab180cf89c5c8eb8e663807486d7c4a",
    (1, 1, 3): "f1c159c8da2c97fcc85ee63112980282a76f471ba2e8c1aa10be3b025d9bba54",
    (1, 2, 3): "e01b5765405498e91fbb5807bdcbdb4c528780e702fa5fb73edad1c5844a4783",
    (4, 7, 7): "d4d5b1ee1dcdc85fa5dfd665cf058a3636f67d9b78d1142f3c7724de08c1747e",
    (3, 5, 60): "8c0becbc9a45c93ef57222489b14736b08767f24474863b7e99bb9e3c25a33b6",
    (2, 1, 150): "dc9e630580b3c7dfed8c86e2ada8fe0bb7addf16724dc984eb5ff077ac897671",
    (5, 100, 200): "a7d70f8affb9f798fc64e400c53e8603d31964ccce736043f1d7345bdb15c3aa",
}

def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_happy_path(self, capsys):
        code, out, _ = run(["verify", "--c", "1", "--m", "1", "--n", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert doc["divisor"]["L"] == 10
        assert doc["divisor"]["D_num"] == 5
        assert doc["divisor"]["D_den"] == 4
        assert doc["divisor"]["quotient"] == 8
        assert doc["ok"] is True

    def test_tight_divisor(self, capsys):
        code, out, _ = run(["verify", "--c", "1", "--m", "2", "--n", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["divisor"]["quotient"] == 1

    def test_usage_error_m_above_n(self, capsys):
        code, out, err = run(["verify", "--c", "1", "--m", "3", "--n", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "usage:" in err

    def test_usage_error_bad_flag(self, capsys):
        code, _, err = run(["verify", "--c", "1", "--m", "1"], capsys)
        assert code == 1
        assert "usage:" in err

    def test_usage_error_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1
        assert "usage:" in err

    def test_violation_exit_2(self, capsys, monkeypatch):
        def forged(c, m, n):
            r = real(c, m, n)
            return dataclasses.replace(r, divisor=dataclasses.replace(r.divisor, quotient_check=None),
                                       violations=("forged failure",))

        real = cli.triple_report
        monkeypatch.setattr(cli, "triple_report", forged)
        code, out, _ = run(["verify", "--c", "1", "--m", "1", "--n", "3"], capsys)
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert doc["ok"] is False
        assert doc["divisor"]["quotient"] is None
        assert any("forged" in v for v in doc["violations"])

    @pytest.mark.parametrize("c, m, n", sorted(VERIFY_SHA256))
    def test_golden_bytes(self, c, m, n, capsys):
        code, out, _ = run(["verify", "--c", str(c), "--m", str(m), "--n", str(n)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[(c, m, n)]


class TestSweep:
    def test_row_count_and_content(self, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 1 + 6  # header + pairs m <= n for n <= 3
        row_113 = [ln for ln in lines[1:] if ln.startswith("1,1,3,")]
        assert len(row_113) == 1
        cells = dict(zip(cli.SWEEP_COLUMNS, row_113[0].split(",")))
        assert cells["quotient"] == "8"
        assert cells["hc"] == "10"
        assert cells["final"] == "NA"

    def test_json_rows_validate(self, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "2", "--c-max", "2", "--n-min", "1", "--n-max", "4",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        schema = load_schema("sweep_row.schema.json")
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert len(rows) == 10
        for row in rows:
            jsonschema.validate(row, schema)

    def test_m_policies(self, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "6",
             "--m-policy", "half_ceil"],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 6
        for row in rows:
            c, m, n = map(int, row.split(",")[:3])
            assert m == (n + 1) // 2

        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "6",
             "--m-policy", "fixed:4"],
            capsys,
        )
        rows = out.strip().split("\n")[1:]
        assert [int(r.split(",")[2]) for r in rows] == [4, 5, 6]

        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "8", "--n-max", "8",
             "--m-policy", "frontier"],
            capsys,
        )
        rows = out.strip().split("\n")[1:]
        assert [r.split(",")[:3] for r in rows] == [["1", "6", "8"]]

    def test_canonical_order(self, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "3"],
            capsys,
        )
        keys = []
        for line in out.strip().split("\n")[1:]:
            c, m, n = map(int, line.split(",")[:3])
            keys.append((c, n, m))
        assert keys == sorted(keys)

    def test_config_errors(self, capsys):
        code, _, err = run(
            ["sweep", "--c-min", "3", "--c-max", "1", "--n-min", "1", "--n-max", "2"],
            capsys,
        )
        assert code == 1
        assert "usage:" in err
        code, _, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2",
             "--m-policy", "bogus"],
            capsys,
        )
        assert code == 1
        code, _, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2",
             "--parallelism", "0"],
            capsys,
        )
        assert code == 1

    def test_parallelism_determinism(self, tmp_path):
        outputs = []
        for workers in (1, 4):
            target = tmp_path / f"sweep_{workers}.csv"
            code = cli.main(
                ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "8",
                 "--parallelism", str(workers), "--out", str(target)]
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("policy, n_max, fmt, workers", [
        ("all", 40, "csv", 1),
        ("all", 40, "csv", 2),
        ("half_ceil", 260, "json", 1),
        ("frontier", 220, "csv", 1),
    ])
    def test_golden_bytes(self, policy, n_max, fmt, workers, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "5", "--n-min", "1", "--n-max", str(n_max),
             "--m-policy", policy, "--format", fmt, "--parallelism", str(workers)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[(policy, n_max, fmt)]

    def test_violation_exit_2(self, capsys, monkeypatch):
        def forged(c, m, n):
            return dataclasses.replace(real(c, m, n), violations=("forged sweep failure",))

        real = cli.triple_report
        monkeypatch.setattr(cli, "triple_report", forged)
        code, out, err = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2"],
            capsys,
        )
        assert code == 2
        assert "VIOLATION" in err
        assert len(out.strip().split("\n")) == 1 + 3  # rows still emitted


class TestBezout:
    def test_k1(self, capsys):
        code, out, _ = run(["bezout", "--c", "1", "--k", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("bezout_certificate.schema.json"))
        assert doc["d"] == 5
        assert doc["r"] == [-4]
        assert doc["s"] == [1, -2]

    def test_k0(self, capsys):
        code, out, _ = run(["bezout", "--c", "1", "--k", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 1
        assert doc["r"] == [0]
        assert doc["s"] == [-1]

    def test_alpha_trimmed(self, capsys):
        for k in (0, 2, 5):
            code, out, _ = run(["bezout", "--c", "2", "--k", str(k)], capsys)
            doc = json.loads(out)
            assert len(doc["alpha"]) <= k + 1

    def test_usage_error(self, capsys):
        code, _, err = run(["bezout", "--c", "0", "--k", "1"], capsys)
        assert code == 1
        assert "usage:" in err
        code, _, _ = run(["bezout", "--c", "1", "--k", "-1"], capsys)
        assert code == 1


    @pytest.mark.parametrize("c, k", sorted(BEZOUT_SHA256))
    def test_golden_bytes(self, c, k, capsys):
        code, out, _ = run(["bezout", "--c", str(c), "--k", str(k)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BEZOUT_SHA256[(c, k)]


class TestOutputErrors:
    # each command's first piece of work raises if reached: the output must
    # be opened before any work starts
    @pytest.mark.parametrize("argv, work", [
        (["verify", "--c", "1", "--m", "1", "--n", "3"], "triple_report"),
        (["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2"], "triple_report"),
        (["bezout", "--c", "1", "--k", "2"], "bezout_certificate"),
        (["table", "--c", "1", "--n-max", "3"], "bound_report"),
    ])
    def test_missing_directory(self, argv, work, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("work started before the output was opened")

        monkeypatch.setattr(cli, work, unreachable)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(argv + ["--out", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert str(target) in err

    def test_verify_beyond_int_str_limit(self, capsys):
        # the divisor record holds integers beyond Python's default
        # 4300-digit limit on int-to-str conversion at this triple
        code, out, _ = run(["verify", "--c", "1", "--m", "700", "--n", "1400"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert max(len(str(v)) for v in doc["divisor"].values()) > 4300


class TestTable:
    def test_ratios_below_one(self, capsys):
        code, out, _ = run(["table", "--c", "1", "--n-max", "10"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["c", "n", "m", "logL"]
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            for name in cli.BOUND_NAMES:
                if cells[name] != "NA":
                    assert float(cells[name]) <= 1 + 1e-9

    def test_oon_gate_in_table(self, capsys):
        _, out, _ = run(["table", "--c", "2", "--n-max", "5"], capsys)
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            n, m = int(cells["n"]), int(cells["m"])
            if m <= (n + 1) // 2:
                assert cells["oon_2n"] != "NA"
                assert float(cells["oon_2n"]) <= 1
            else:
                assert cells["oon_2n"] == "NA"

    def test_deterministic(self, capsys):
        _, out1, _ = run(["table", "--c", "1", "--n-max", "7"], capsys)
        _, out2, _ = run(["table", "--c", "1", "--n-max", "7"], capsys)
        assert out1 == out2

    @pytest.mark.parametrize("c", sorted(TABLE_SHA256))
    def test_golden_bytes(self, c, capsys):
        code, out, _ = run(["table", "--c", str(c), "--n-max", "70"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[c]


# sweep rows for the pool's workers; module level so they pickle by reference
def _raising_row(triple):
    raise RuntimeError(f"forged worker failure at {triple}")


def _dying_row(triple):
    os._exit(3)


class TestSweepWorkerFailure:
    @pytest.mark.parametrize("row, reason", [
        (_raising_row, "RuntimeError: forged worker failure at (1, 1, 1)"),
        (_dying_row, "BrokenProcessPool: "),
    ])
    def test_exit_1_with_one_line(self, row, reason, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_row", row)
        code, _, err = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "4",
             "--parallelism", "2"],
            capsys,
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("quadlcm: error: sweep worker failed: ")
        assert reason in err


class TestForgedLcm:
    # L = 2 at (1, 1, 2) leaves L/D integral but L*(n-m)! not a multiple of
    # (1 + i)(2 + i) = 1 + 3i, so the divisor record's star check must fail;
    # at (1, 2, 2) L/D = 2/5 is not integral, and only the quotient is null
    SWEEP = ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "2", "--n-max", "2"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--c", "1", "--m", "1", "--n", "2"],
        SWEEP,
        SWEEP + ["--format", "json"],
        ["table", "--c", "1", "--n-max", "2"],
    ], ids=["verify", "sweep", "sweep-json", "table"])
    def test_exit_2_with_the_row_written(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "lcm_range", lambda c, m, n: 2)
        code, out, err = run(argv, capsys)
        assert code == 2
        lines = out.strip().split("\n")
        if argv[0] == "verify":
            doc = json.loads(out)
            jsonschema.validate(doc, load_schema("verify_report.schema.json"))
            assert doc["divisor"]["L"] == 2
            assert any(v.startswith("divisor invariants failed") for v in doc["violations"])
        elif argv[0] == "table":
            assert len(lines) == 1 + 3
            assert "VIOLATION at (c,m,n)=(1, 1, 2): bound invariants failed" in err
        elif "json" in argv:
            schema = load_schema("sweep_row.schema.json")
            rows = [json.loads(ln) for ln in lines]
            for row in rows:
                jsonschema.validate(row, schema)
            assert [(r["m"], r["L"], r["D_num"], r["D_den"], r["quotient"]) for r in rows] == [
                (1, 2, 2, 1, 1), (2, 2, 5, 1, None)]
            assert all(r[col] is not None for r in rows for col in ("hc", "hc_bound", "star_x", "star_y"))
        else:
            assert [ln.split(",")[:7] for ln in lines[1:]] == [
                ["1", "1", "2", "2", "2", "1", "1"], ["1", "2", "2", "2", "5", "1", "NA"]]
            assert all("NA" not in ln.split(",")[7:11] for ln in lines[1:])
            assert "VIOLATION at (c,m,n)=(1, 1, 2): divisor invariants failed" in err


# runs one command in a fresh interpreter and prints every module it loaded
_MODULES_PROBE = """
import contextlib, io, json, sys
import quadlcm.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def loaded_modules(argv):
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300, check=True)
    doc = json.loads(done.stdout)
    assert doc["code"] == 0
    return set(doc["modules"])


class TestColdStart:
    def test_bezout_loads_neither_mpmath_nor_the_pool(self):
        modules = loaded_modules(["bezout", "--c", "3", "--k", "5"])
        assert "mpmath.ctx_mp" not in modules
        assert not [name for name in modules if name.startswith("mpmath.")]
        assert "concurrent.futures.process" not in modules

    def test_serial_sweep_loads_mpmath_but_not_the_pool(self):
        modules = loaded_modules(["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1",
                                  "--n-max", "3", "--parallelism", "1"])
        assert "mpmath.ctx_mp" in modules
        assert "concurrent.futures.process" not in modules
