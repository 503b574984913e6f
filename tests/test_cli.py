import csv
from pathlib import Path

import numpy as np
import pytest

from curcluster import pipeline, synth
from curcluster.cli import (
    DataError,
    labels_path,
    load_csv,
    main,
    save_csv,
    save_labels,
)
from curcluster.cluster import LabelVector


def write(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_matrix(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2,3\n4,5,6\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.matrix, [[1, 2, 3], [4, 5, 6]])
        assert ds.labels is None

    def test_sibling_labels(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2,3\n4,5,6\n")
        write(tmp_path / "d.labels", "0\n0\n1\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.labels.labels, [0, 0, 1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_ragged_row_names_line(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2,3\n4,5\n")
        with pytest.raises(DataError, match=r"d\.csv:2: ragged row"):
            load_csv(p)

    def test_non_numeric_names_line(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2\n3,x\n")
        with pytest.raises(DataError, match=r"d\.csv:2: non-numeric"):
            load_csv(p)

    def test_label_count_mismatch(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2,3\n")
        write(tmp_path / "d.labels", "0\n1\n")
        with pytest.raises(DataError, match="2 labels for 3 data columns"):
            load_csv(p)

    @pytest.mark.parametrize("label", ["-1", "x"])
    def test_bad_label_names_line(self, tmp_path, label):
        p = write(tmp_path / "d.csv", "1,2,3\n")
        write(tmp_path / "d.labels", f"0\n1\n{label}\n")
        with pytest.raises(DataError, match=rf"d\.labels:3: label '{label}' is not an integer >= 0"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(p)

    def test_labels_path_extension(self, tmp_path):
        assert labels_path("a/b.csv").name == "b.labels"
        assert labels_path("a/b.dat").name == "b.dat.labels"


class TestRoundTrip:
    def test_seventeen_digit_precision(self, tmp_path, rng):
        matrix = rng.standard_normal((7, 9)) * 10.0 ** rng.integers(-8, 8, (7, 9))
        p = tmp_path / "m.csv"
        save_csv(p, matrix)
        np.testing.assert_array_equal(load_csv(p).matrix, matrix)

    def test_labels_round_trip(self, tmp_path):
        lv = LabelVector(labels=np.array([2, 0, 1, 1]), m_clusters=3)
        write(tmp_path / "d.csv", "1,2,3,4\n")
        save_labels(tmp_path / "d.labels", lv)
        ds = load_csv(tmp_path / "d.csv")
        np.testing.assert_array_equal(ds.labels.labels, lv.labels)


class TestSynthCommand:
    def test_writes_instance_and_labels(self, tmp_path):
        out = tmp_path / "case1.csv"
        code = main(["synth", "--case", "1", "--sigma", "0", "--out", str(out),
                     "--points", "6", "--ambient", "30"])
        assert code == 0
        ds = load_csv(out)
        assert ds.matrix.shape == (30, 12)
        assert ds.labels.labels.shape == (12,)

    def test_sweep_writes_seven_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["synth", "--sweep", "--case", "1", "--trials", "1",
                     "--k", "2", "--points", "6", "--out", str(out),
                     "--sigma", "0", "--sigma", "0.01"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sigma,mean_err,median_err,min_err,max_err,n_instances"
        assert len(lines) == 3  # header + the two requested noise levels

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "--trials", "1", "--k", "1"]],
                             ids=["instance", "sweep"])
    def test_ambient_too_small_exits_data(self, tmp_path, capsys, sweep):
        code = main(["synth", *sweep, "--case", "1", "--ambient", "5", "--sigma", "0",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert "exceeds ambient dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("sweep", [[], ["--sweep", "--trials", "1", "--k", "1"]],
                             ids=["instance", "sweep"])
    def test_bad_sigma_exits_data(self, tmp_path, capsys, sweep, sigma):
        out = tmp_path / "s.csv"
        code = main(["synth", *sweep, "--case", "1", "--sigma", sigma, "--out", str(out)])
        assert code == 3
        assert "sigma must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_sigma_needs_sweep(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--sigma", "0.01", "--sigma", "0.2", "--out", str(out)])
        assert exc.value.code == 2
        assert "--sigma repeats only with --sweep" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_checks_every_sigma_first(self, tmp_path, capsys, monkeypatch):
        def no_level_runs(*args, **kwargs):
            raise AssertionError("a noise level ran before every sigma was checked")

        monkeypatch.setattr(synth, "proto_cluster", no_level_runs)
        out = tmp_path / "s.csv"
        code = main(["synth", "--sweep", "--case", "2", "--trials", "3", "--sigma", "0.01",
                     "--sigma", "nan", "--out", str(out)])
        assert code == 3
        assert "sigma must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_no_args_exits_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_sweep_config_exits_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--sweep", "--k", "0", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "n_trials must be >= 1" in capsys.readouterr().err


class TestClusterCommand:
    @pytest.fixture
    def dataset(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["synth", "--case", "1", "--sigma", "0", "--out", str(out),
              "--points", "8", "--ambient", "40"])
        return out

    def test_exact_zero_error(self, dataset, tmp_path, capsys):
        code = main(["cluster", str(dataset), "--algo", "exact", "--out", str(tmp_path / "run")])
        assert code == 0
        assert "clustering error: 0%" in capsys.readouterr().out
        assert (tmp_path / "run.labels").is_file()
        report = (tmp_path / "run.report.csv").read_text().splitlines()
        assert report[0] == "dataset,algo,params,error_pct,r_best,seconds,seed"
        assert ",exact,,0,," in report[1]  # no params: the exact path takes none

    def test_default_out_keeps_dataset_labels(self, dataset, capsys):
        truth = labels_path(dataset).read_bytes()
        assert main(["cluster", str(dataset), "--algo", "exact"]) == 0
        assert "clustering error: 0%" in capsys.readouterr().out
        assert labels_path(dataset).read_bytes() == truth
        assert (dataset.parent / "d.pred.labels").read_bytes() == truth  # 0% error, same ids
        assert (dataset.parent / "d.pred.report.csv").is_file()

    @pytest.mark.parametrize("out", ["d", "d.csv"])
    def test_out_onto_dataset_labels_exits_usage(self, dataset, capsys, out):
        truth = labels_path(dataset).read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(dataset), "--algo", "proto", "--M", "2", "--rank", "8",
                  "--out", str(dataset.parent / out)])
        assert exc.value.code == 2
        assert "would write over the dataset's" in capsys.readouterr().err
        assert labels_path(dataset).read_bytes() == truth

    @pytest.mark.parametrize("out", ["b", "b.csv"])
    def test_out_onto_other_dataset_labels_exits_usage(self, dataset, capsys, out):
        other = dataset.parent / "b.csv"
        main(["synth", "--case", "1", "--sigma", "0", "--out", str(other), "--points", "8",
              "--ambient", "40", "--seed", "3"])
        truth = labels_path(other).read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(dataset), "--algo", "exact", "--out", str(dataset.parent / out)])
        assert exc.value.code == 2
        assert (f"would write over {labels_path(other)}, the labels of dataset {other}"
                in capsys.readouterr().err)
        assert labels_path(other).read_bytes() == truth

    def test_proto_deterministic_byte_identical(self, dataset, tmp_path):
        argv = ["cluster", str(dataset), "--algo", "proto", "--M", "2",
                "--rank", "8", "--k", "5", "--seed", "7"]
        main(argv + ["--out", str(tmp_path / "a")])
        main(argv + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a.labels").read_bytes() == (tmp_path / "b.labels").read_bytes()

    @pytest.mark.parametrize("flags, cols", [([], 288), (["--cols", "300"], 300),
                                             (["--cols", "40"], 40)])
    def test_proto_params_show_resolved_columns(self, tmp_path, flags, cols):
        # n = 300 at rank 12: by default a trial takes min(n, 24 * 12) = 288 columns
        data = tmp_path / "big.csv"
        main(["synth", "--case", "2", "--points", "100", "--sigma", "0.05", "--out", str(data)])
        assert main(["cluster", str(data), "--algo", "proto", "--M", "3", "--rank", "12",
                     "--k", "3", "--out", str(tmp_path / "p")] + flags) == 0
        (row,) = csv.DictReader(open(tmp_path / "p.report.csv"))
        assert row["params"] == f"M=3;rank=12;k=3;rows=12;cols={cols};backend=pcc"

    def test_rcur_reports_rank(self, dataset, tmp_path, capsys):
        code = main(["cluster", str(dataset), "--algo", "rcur", "--M", "2",
                     "--rmin", "6", "--rmax", "9", "--alpha", "2", "--k", "5",
                     "--out", str(tmp_path / "r")])
        assert code == 0
        out = capsys.readouterr().out
        assert "r_best:" in out
        assert out.count("ncut") == 4  # one sweep line per rank

    def test_sim_baseline_runs(self, dataset, tmp_path, capsys):
        code = main(["cluster", str(dataset), "--algo", "sim", "--M", "2",
                     "--rank", "8", "--out", str(tmp_path / "s")])
        assert code == 0
        assert "clustering error: 0%" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--algo", "exact"],
                                       ["--algo", "proto", "--M", "2", "--rank", "8"]])
    def test_byte_order_mark_is_ignored(self, dataset, tmp_path, monkeypatch, flags):
        # a spreadsheet's "CSV UTF-8" export starts the data and labels files with EF BB BF
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            folder = tmp_path / name
            folder.mkdir()
            for source in (dataset, labels_path(dataset)):
                (folder / source.name).write_bytes(prefix + source.read_bytes())
            monkeypatch.chdir(folder)
            assert main(["cluster", dataset.name, "--out", "run"] + flags) == 0
            (row,) = csv.DictReader(open("run.report.csv"))
            del row["seconds"]
            outputs.append((Path("run.labels").read_bytes(), row))
        assert outputs[0] == outputs[1]
        assert outputs[0][1]["error_pct"] == "0"

    def test_missing_flag_is_usage_error(self, dataset):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(dataset), "--algo", "proto", "--M", "2"])
        assert exc.value.code == 2

    def test_missing_data_exits_three(self, tmp_path):
        code = main(["cluster", str(tmp_path / "nope.csv"), "--algo", "exact"])
        assert code == 3

    def test_bad_rank_exits_three(self, dataset):
        code = main(["cluster", str(dataset), "--algo", "proto", "--M", "2",
                     "--rank", "200", "--k", "2"])
        assert code == 3

    @pytest.mark.parametrize("flags, message", [
        (["--algo", "proto", "--M", "3", "--rank", "2"], "target_rank must be >= m_subspaces"),
        (["--algo", "rcur", "--M", "2", "--rmin", "2", "--rmax", "3", "--alpha", "0"],
         "alpha must be positive"),
        (["--algo", "rcur", "--M", "2", "--rmin", "2", "--rmax", "3", "--alpha", "nan"],
         "alpha must be positive and finite"),
        (["--algo", "rcur", "--M", "2", "--rmin", "2", "--rmax", "3", "--alpha", "inf"],
         "alpha must be positive and finite"),
        # fewer columns than the rank capped every trial's rank, and ran with exit 0
        (["--algo", "proto", "--M", "3", "--rank", "12", "--cols", "2"],
         "cols_per_trial must be >= target_rank"),
    ])
    def test_config_error_is_usage_error(self, dataset, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(dataset)] + flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--algo", "exact"],
        ["--algo", "proto", "--M", "2", "--rank", "2"],
        ["--algo", "rcur", "--M", "2", "--rmin", "1", "--rmax", "2", "--alpha", "2"],
        ["--algo", "sim", "--M", "2", "--rank", "2"],
    ])
    def test_nan_cell_exits_three(self, tmp_path, capsys, flags):
        data = write(tmp_path / "nan.csv", "1,0,0,2\n0,1,nan,0\n0,0,1,1\n")
        assert main(["cluster", str(data)] + flags) == 3
        assert "nan.csv: matrix contains NaN or Inf" in capsys.readouterr().err

    def test_linalg_error_exits_four(self, dataset, monkeypatch, capsys):
        def diverge(w, config):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(pipeline, "proto_cluster", diverge)
        code = main(["cluster", str(dataset), "--algo", "proto", "--M", "2", "--rank", "8"])
        assert code == 4
        assert "SVD did not converge" in capsys.readouterr().err

    def test_exact_more_than_eight_components_reports(self, tmp_path, capsys):
        # noise breaks the exact path's pattern into one component per point
        data = tmp_path / "noisy.csv"
        main(["synth", "--case", "2", "--points", "20", "--sigma", "0.05", "--out", str(data)])
        assert main(["cluster", str(data), "--algo", "exact", "--out", str(tmp_path / "o")]) == 0
        assert "clustering error: 95%" in capsys.readouterr().out  # 3 of 60 points matched
        assert ",exact,,95," in (tmp_path / "o.report.csv").read_text()

    def test_exact_on_noisy_data_warns(self, tmp_path, capsys):
        data = tmp_path / "noisy.csv"
        main(["synth", "--case", "2", "--points", "20", "--sigma", "0.05", "--out", str(data)])
        assert main(["cluster", str(data), "--algo", "exact", "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "60 components, 60 of them single points" in err[0]
        assert "assumes noise-free data" in err[0]

    def test_exact_on_noise_free_data_is_silent(self, tmp_path, capsys):
        data = tmp_path / "clean.csv"  # 300 x 300, as the exact path's benchmark input
        main(["synth", "--case", "2", "--points", "100", "--sigma", "0", "--out", str(data)])
        assert main(["cluster", str(data), "--algo", "exact", "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert "clustering error: 0%" in captured.out
        assert captured.err == ""

    def test_selection_failure_exits_four(self, tmp_path):
        # rank hides in single entries; tiny retry budget cannot find them
        m = np.zeros((30, 30))
        m[0, 0] = m[29, 29] = 1.0
        data = tmp_path / "hard.csv"
        save_csv(data, m)
        code = main(["cluster", str(data), "--algo", "proto", "--M", "2",
                     "--rank", "2", "--rows", "2", "--cols", "2", "--k", "1"])
        assert code == 4


class TestBenchCommand:
    def test_noise_free_directory_zero_mean(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        bench.mkdir()
        manifest_lines = []
        for i in range(3):
            out = bench / f"set{i}.csv"
            main(["synth", "--case", "1", "--sigma", "0", "--out", str(out),
                  "--points", "6", "--ambient", "25", "--seed", str(i)])
            category = "checker" if i < 2 else "traffic"
            manifest_lines.append(f"set{i}.csv,{category},2")
        manifest = write(tmp_path / "manifest.csv", "\n".join(manifest_lines) + "\n")

        report = tmp_path / "report.csv"
        code = main(["bench", "--dir", str(bench), "--manifest", str(manifest),
                     "--out", str(report), "--algo", "proto", "--M", "2",
                     "--rank", "8", "--k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall (3): mean 0%" in out
        assert "checker (2): mean 0%" in out
        assert "traffic (1): mean 0%" in out
        lines = report.read_text().splitlines()
        assert len(lines) == 4  # header + three datasets

    def test_exact_on_noisy_data_warns_once_per_dataset(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        bench.mkdir()
        for name, sigma in (("clean", "0"), ("noisy", "0.05")):
            main(["synth", "--case", "2", "--points", "20", "--sigma", sigma,
                  "--out", str(bench / f"{name}.csv")])
        assert main(["bench", "--dir", str(bench), "--out", str(tmp_path / "r.csv"),
                     "--algo", "exact", "--repeats", "3"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "noisy.csv" in err[0] and "60 of them single points" in err[0]

    def test_exact_runs_once_for_any_repeats(self, tmp_path, monkeypatch):
        bench = tmp_path / "bench"
        bench.mkdir()
        main(["synth", "--case", "2", "--points", "20", "--sigma", "0.05",
              "--out", str(bench / "noisy.csv")])
        calls = []
        cluster_noise_free = pipeline.cluster_noise_free
        monkeypatch.setattr(pipeline, "cluster_noise_free",
                            lambda *args: calls.append(1) or cluster_noise_free(*args))
        errors = []
        for repeats in ("1", "3"):
            report = tmp_path / f"r{repeats}.csv"
            assert main(["bench", "--dir", str(bench), "--out", str(report), "--algo", "exact",
                         "--repeats", repeats]) == 0
            errors.append(next(csv.DictReader(report.open()))["error_pct"])
        assert len(calls) == 2
        assert errors[0] == errors[1] != "0"

    @pytest.mark.parametrize("out, code", [
        ("bench/report.csv", 2),
        ("bench/a.csv", 2),
        ("bench/a.labels", 2),
        ("bench/run.report.csv", 0),  # the dataset glob skips *.report.csv
        ("report.csv", 0),
    ])
    def test_out_inside_dir_exits_usage(self, tmp_path, capsys, out, code):
        bench = tmp_path / "bench"
        bench.mkdir()
        main(["synth", "--case", "2", "--points", "10", "--out", str(bench / "a.csv")])
        before = {p.name: p.read_bytes() for p in bench.iterdir()}
        argv = ["bench", "--dir", str(bench), "--algo", "exact", "--out"]
        if code:
            with pytest.raises(SystemExit) as exc:
                main(argv + [str(tmp_path / out)])
            assert exc.value.code == code
            assert f"--out {tmp_path / out} is inside --dir {bench}" in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in bench.iterdir()} == before
        else:
            assert main(argv + [str(tmp_path / out)]) == 0
        assert main(argv + [str(tmp_path / "again.csv")]) == 0

    @pytest.mark.parametrize("flags", [
        ["--algo", "exact"],
        ["--algo", "proto", "--M", "2", "--rank", "8", "--k", "5"],
        ["--algo", "rcur", "--M", "2", "--rmin", "2", "--rmax", "8", "--alpha", "2", "--k", "5"],
        ["--algo", "sim", "--M", "2", "--rank", "8"],
    ])
    def test_one_repeat_reports_as_cluster(self, tmp_path, flags):
        bench = tmp_path / "bench"
        bench.mkdir()
        data = bench / "d.csv"
        main(["synth", "--case", "1", "--sigma", "0.05", "--points", "8", "--ambient", "40",
              "--out", str(data)])
        assert main(["cluster", str(data), "--seed", "3", "--out", str(tmp_path / "c")]
                    + flags) == 0
        assert main(["bench", "--dir", str(bench), "--repeats", "1", "--seed", "3",
                     "--out", str(tmp_path / "b.csv")] + flags) == 0
        rows = []
        for report in (tmp_path / "c.report.csv", tmp_path / "b.csv"):
            (row,) = csv.DictReader(report.open())
            del row["dataset"], row["seconds"]
            rows.append(row)
        assert rows[0] == rows[1]
        assert rows[0]["error_pct"] != ""

    def test_empty_directory_exits_three(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["bench", "--dir", str(empty), "--out",
                     str(tmp_path / "r.csv"), "--algo", "exact"])
        assert code == 3

    def test_manifest_byte_order_mark_is_ignored(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts the manifest with EF BB BF
        bench = tmp_path / "bench"
        bench.mkdir()
        main(["synth", "--case", "1", "--sigma", "0", "--points", "6", "--ambient", "25",
              "--out", str(bench / "d.csv")])
        reports = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            manifest = tmp_path / f"{name}.manifest"
            manifest.write_bytes(prefix + b"d.csv,lines,2\n")
            report = tmp_path / f"{name}.csv"
            assert main(["bench", "--dir", str(bench), "--manifest", str(manifest),
                         "--out", str(report), "--algo", "proto", "--rank", "8"]) == 0
            (row,) = csv.DictReader(report.open())
            del row["seconds"]
            reports.append(row)
        assert reports[0] == reports[1]

    def test_bad_manifest_exits_three(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        bench.mkdir()
        write(bench / "d.csv", "1,2\n3,4\n")
        manifest = write(tmp_path / "manifest.csv", "d.csv,only-two-fields\n")
        code = main(["bench", "--dir", str(bench), "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.csv"), "--algo", "exact"])
        assert code == 3
        for count in ("0", "-1"):
            manifest = write(tmp_path / "manifest.csv", f"d.csv,cat,2\n\nd.csv,cat,{count}\n")
            code = main(["bench", "--dir", str(bench), "--manifest", str(manifest),
                         "--out", str(tmp_path / "r.csv"), "--algo", "proto", "--M", "2",
                         "--rank", "2"])
            assert code == 3
            err = capsys.readouterr().err
            assert f"manifest.csv:3: cluster count '{count}' is not an integer >= 1" in err


class TestCountFlags:
    """Integer count flags below 1 are usage errors, rejected before any work."""

    @pytest.fixture
    def paths(self, tmp_path):
        data = tmp_path / "d.csv"
        main(["synth", "--case", "1", "--sigma", "0", "--out", str(data),
              "--points", "8", "--ambient", "40"])
        return {"data": str(data), "dir": str(tmp_path), "out": str(tmp_path / "o.csv")}

    @pytest.mark.parametrize("argv", [
        "bench --dir {dir} --out {out} --algo exact --dmax 1 --repeats 0",
        "cluster {data} --algo proto --M 2 --rank 8 --cols 0",
        "cluster {data} --algo exact --dmax 0",
        "synth --sweep --trials 0 --out {out}",
        "cluster {data} --algo proto --M 0 --rank 8",
        "cluster {data} --algo sim --M 2 --rank 0",
        "cluster {data} --algo proto --M 2 --rank 8 --rows -1",
        "cluster {data} --algo rcur --M 2 --rmin 0 --rmax 3 --alpha 2",
        "cluster {data} --algo rcur --M 2 --rmin 1 --rmax 0 --alpha 2",
        "synth --points 0 --out {out}",
        "synth --ambient 0 --out {out}",
    ])
    def test_below_one_exits_usage(self, paths, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([part.format(**paths) for part in argv.split()])
        assert exc.value.code == 2
        assert "must be >= 1, got" in capsys.readouterr().err
