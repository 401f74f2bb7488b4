import csv
import json

import pytest

from scargraph.cli import QE_MAX_VERTICES, RunConfig, main, run_pipeline
from scargraph.graphs import save_edge_list
from scargraph.named import cycle_graph, mcgee_graph
from scargraph.spectral import DENSE_CUTOFF


@pytest.fixture()
def mcgee_file(tmp_path):
    path = tmp_path / "mcgee.edges"
    save_edge_list(mcgee_graph(), path)
    return str(path)


class TestRunPipeline:
    def test_end_to_end(self, mcgee_file, tmp_path):
        cfg = RunConfig(d=2, r=1, sites=1, seed=7, base_file=mcgee_file,
                        out_graph=str(tmp_path / "g.edges"),
                        out_cert=str(tmp_path / "cert.json"))
        cert = run_pipeline(cfg)
        assert cert.M == 26 and cert.all_ok
        assert (tmp_path / "g.edges").exists()
        assert (tmp_path / "cert.json").exists()

    def test_exactly_one_base_source(self, mcgee_file):
        with pytest.raises(ValueError, match="exactly one"):
            run_pipeline(RunConfig(d=2, r=1, sites=1, seed=0,
                                   base_file=mcgee_file, lps_p=5, lps_q=29))
        with pytest.raises(ValueError, match="exactly one"):
            run_pipeline(RunConfig(d=2, r=1, sites=1, seed=0))

    def test_determinism_byte_identical(self, mcgee_file, tmp_path):
        certs = []
        for run in ("a", "b"):
            cfg = RunConfig(d=2, r=1, sites=1, seed=9, base_file=mcgee_file,
                            out_cert=str(tmp_path / f"cert_{run}.json"))
            run_pipeline(cfg)
            data = json.loads((tmp_path / f"cert_{run}.json").read_text())
            data["created_utc"] = ""
            certs.append(json.dumps(data, sort_keys=True))
        assert certs[0] == certs[1]


class TestSubcommands:
    def test_base_validate(self, mcgee_file, capsys):
        code = main(["base", "validate", "--graph", mcgee_file,
                     "--d", "2", "--r", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["girth"] == 7

    def test_base_lps_writes_graph(self, tmp_path):
        out = tmp_path / "h.edges"
        code = main(["base", "lps", "--p", "5", "--q", "29",
                     "--out", str(out)])
        assert code == 0
        head = out.read_text().splitlines()[0]
        assert head == "12180 36540"

    def test_pair(self, tmp_path):
        out = tmp_path / "pairing.json"
        code = main(["pair", "--d", "2", "--depth", "3", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["girth"] >= 6

    def test_construct_spectrum_qe_verify_report(self, mcgee_file, tmp_path,
                                                 capsys):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        assert main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
                     "--sites", "1", "--seed", "7", "--out", gpath,
                     "--cert", cpath]) == 0
        spath = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--graph", gpath, "--k", "4",
                     "--out", spath]) == 0
        with open(spath) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "lambda", "residual"]
        assert len(rows) > 1

        qpath = str(tmp_path / "qe.csv")
        assert main(["qe", "--graph", gpath, "--cert", cpath,
                     "--out", qpath]) == 0
        with open(qpath) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "min_support_0.5", "witness"]
        assert len(rows) == 27  # header + 26 eigenvectors

        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 0
        assert main(["report", "--cert", cpath]) == 0
        out = capsys.readouterr().out
        assert "girth" in out

    def test_verify_detects_tampering(self, mcgee_file, tmp_path):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        data["girth"] += 2
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 1

    def test_verify_out_of_range_support_fails(self, mcgee_file, tmp_path,
                                               capsys):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        data["localized"][0]["support"] = [0, 999]
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] localized_0" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_usage_errors_exit_two(self, tmp_path):
        assert main(["spectrum", "--graph", str(tmp_path / "missing.edges"),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert main(["base", "lps", "--p", "5", "--q", "13",
                     "--out", str(tmp_path / "h.edges")]) == 2
        assert main(["nonsense"]) == 2

    @pytest.mark.parametrize("edit,msg", [
        (lambda d: d.update(extra=1), "unknown keys extra"),
        (lambda d: d.pop("girth"), "missing keys girth"),
        (lambda d: d["localized"][0].update(extra=1),
         "localized[0]: unknown keys extra"),
        (lambda d: d["localized"][0].pop("values"),
         "localized[0]: missing keys values"),
    ], ids=["top-unknown", "top-missing", "localized-unknown",
            "localized-missing"])
    def test_verify_malformed_certificate_exits_two(self, mcgee_file, tmp_path,
                                                    capsys, edit, msg):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        edit(data)
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 2
        err = capsys.readouterr().err
        assert msg in err and "Traceback" not in err

    @pytest.mark.parametrize("edit,msg", [
        (lambda d: d["localized"][0].update(eigenvalue="0"),
         "localized[0]: 'eigenvalue' must be a number"),
        (lambda d: d["localized"][0].update(witness_value="0"),
         "localized[0]: 'witness_value' must be a number"),
        (lambda d: d.update(d="2"), "certificate: 'd' must be an integer"),
        (lambda d: d.update(spectral_method=None),
         "certificate: 'spectral_method' must be a string"),
        (lambda d: d.update(d=1), "d must be at least 2"),
    ], ids=["eigenvalue-string", "witness-string", "d-string",
            "method-null", "d-one"])
    def test_verify_wrongly_typed_field_exits_two(self, mcgee_file, tmp_path,
                                                  capsys, edit, msg):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        edit(data)
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 2
        err = capsys.readouterr().err
        assert msg in err and "Traceback" not in err

    @pytest.mark.parametrize("support", [[0, 999], 5, [-1]],
                             ids=["beyond-M", "not-a-list", "negative"])
    @pytest.mark.parametrize("cmd", ["qe", "report"])
    def test_malformed_support_exits_two(self, mcgee_file, tmp_path, capsys,
                                         cmd, support):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        data["localized"][0]["support"] = support
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        qpath = tmp_path / "qe.csv"
        argv = {"qe": ["qe", "--graph", gpath, "--cert", cpath,
                       "--out", str(qpath)],
                "report": ["report", "--cert", cpath]}[cmd]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "localized[0]: support must hold" in err
        assert "Traceback" not in err and not qpath.exists()

    def test_qe_rejects_graph_beyond_full_basis_limit(self, mcgee_file,
                                                      tmp_path, capsys):
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out",
              str(tmp_path / "g.edges"), "--cert", cpath])
        big = str(tmp_path / "big.edges")
        save_edge_list(cycle_graph(QE_MAX_VERTICES + 1), big)
        qpath = tmp_path / "qe.csv"
        capsys.readouterr()
        assert main(["qe", "--graph", big, "--cert", cpath,
                     "--out", str(qpath)]) == 2
        err = capsys.readouterr().err
        assert "full eigenbasis" in err and str(QE_MAX_VERTICES) in err
        assert not qpath.exists()
        # the full-basis limit does not follow the eigensolver's cutoff
        assert QE_MAX_VERTICES == 4096 > DENSE_CUTOFF
