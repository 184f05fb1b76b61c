import math

import pytest

from oracles import mutual_reach_components
from sectornet import cli
from sectornet.cli import main
from sectornet.errors import ConstructionInvariantViolated
from sectornet.fileio import read_orientation, read_points, write_orientation, write_points
from sectornet.geometry import Point
from sectornet.instances import random_connected_udg
from sectornet.orient90 import orient_all_90
from sectornet.orient180 import RADIUS_180
from sectornet.orientation import OrientationAssignment
from sectornet.verifier import build_comm_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrientCommand:
    def test_two_point_file_alpha_180(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        out = tmp_path / "orient.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        code, stdout, _ = run(capsys, "orient", "--input", str(src), "--alpha", "180", "--out", str(out))
        assert code == 0
        assert f"guaranteed_radius {RADIUS_180!r}" in stdout
        assert "achieved_min_strong_radius 1.0" in stdout
        a = read_orientation(out)
        assert set(a.theta) == {0, 1}
        assert a.alpha == math.pi

    def test_disconnected_exits_3(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 3, 0)])
        code, _, err = run(capsys, "orient", "--input", str(src), "--alpha", "180", "--out", str(tmp_path / "o.txt"))
        assert code == 3
        assert "connected" in err

    def test_failed_self_check_exits_4(self, tmp_path, capsys, monkeypatch):
        def construction(points):
            raise ConstructionInvariantViolated("construction failed its self-check")

        monkeypatch.setattr(cli, "orient_all_180", construction)
        src = tmp_path / "pts.txt"
        out = tmp_path / "o.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        code, stdout, err = run(capsys, "orient", "--input", str(src), "--alpha", "180", "--out", str(out))
        assert (code, stdout) == (4, "")
        assert err == "error: construction failed its self-check\n"
        assert not out.exists()

    def test_parse_error_exits_2(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        src.write_text("0 zero 0\n")
        code, _, _ = run(capsys, "orient", "--input", str(src), "--alpha", "90", "--out", str(tmp_path / "o.txt"))
        assert code == 2

    def test_fifty_points_alpha_90(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "witness", "--kind", "collinear", "--param", "2", "--out", str(tmp_path / "x.txt"))
        assert code == 0
        src = tmp_path / "pts.txt"
        write_points(src, random_connected_udg(50, 12, 7.0))
        out = tmp_path / "orient.txt"
        code, stdout, _ = run(capsys, "orient", "--input", str(src), "--alpha", "90", "--out", str(out))
        assert code == 0
        assert "guaranteed_radius 7.0" in stdout


class TestVerifyCommand:
    def test_strong_pair(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        orient.write_text("alpha 1.5707963267948966\nradius 1.0\n0 0.0\n1 3.141592653589793\n")
        code, stdout, _ = run(capsys, "verify", "--input", str(src), "--orientation", str(orient))
        assert code == 0 and "STRONG sccs=1" in stdout

    def test_facing_away_not_strong(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        orient.write_text("alpha 1.5707963267948966\nradius 5.0\n0 3.141592653589793\n1 0.0\n")
        code, stdout, _ = run(capsys, "verify", "--input", str(src), "--orientation", str(orient))
        assert code == 1 and "NOT-STRONG sccs=2" in stdout

    def test_mismatched_ids_exit_2(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        orient.write_text("alpha 3.14\nradius 1.0\n0 0.0\n")
        code, _, _ = run(capsys, "verify", "--input", str(src), "--orientation", str(orient))
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "plot"])
    @pytest.mark.parametrize(
        "thetas", ["0 0.0\n1 0.0\n", "0 0.0\n1 0.0\n2 0.0\n3 0.0\n"], ids=["missing", "extra"]
    )
    def test_orientation_ids_must_match_points_exit_2(self, tmp_path, capsys, command, thetas):
        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        svg = tmp_path / "fig.svg"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0), Point(2, 0.5, 0.8)])
        orient.write_text("alpha 1.5707963267948966\nradius 2.0\n" + thetas)
        argv = [command, "--input", str(src), "--orientation", str(orient)]
        code, stdout, err = run(capsys, *argv, *(["--out", str(svg)] if command == "plot" else []))
        assert code == 2 and stdout == ""
        assert f"{orient}:0: orientation ids do not match point ids" in err
        assert not svg.exists()

    @pytest.mark.parametrize(
        "text,line",
        [
            ("alpha inf\nradius 1.0\n0 0.0\n1 3.14\n", 1),
            ("alpha 3.14\nradius nan\n0 0.0\n1 3.14\n", 2),
            ("alpha 3.14\nradius 1.0\n0 nan\n1 3.14\n", 3),
            ("alpha 3.14\nradius 1.0\n0 0.0\n1 inf\n", 4),
        ],
        ids=["alpha-inf", "radius-nan", "theta-nan", "theta-inf"],
    )
    def test_non_finite_orientation_exit_2(self, tmp_path, capsys, text, line):
        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        orient.write_text(text)
        code, stdout, err = run(capsys, "verify", "--input", str(src), "--orientation", str(orient))
        assert code == 2 and stdout == ""
        assert f"{orient}:{line}: " in err and "must be finite" in err

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("alpha 100.0\nradius 1.0\n0 0.0\n1 3.14\n", 1, "alpha must lie in (0, 2*pi]"),
            ("alpha -1.0\nradius 1.0\n0 0.0\n1 3.14\n", 1, "alpha must lie in (0, 2*pi]"),
            ("alpha 0.0\nradius 1.0\n0 0.0\n1 3.14\n", 1, "alpha must lie in (0, 2*pi]"),
            ("alpha 3.14\nradius -2.0\n0 0.0\n1 3.14\n", 2, "radius must be non-negative"),
        ],
        ids=["alpha-100", "alpha-negative", "alpha-zero", "radius-negative"],
    )
    def test_out_of_range_orientation_exit_2(self, tmp_path, capsys, text, line, message):
        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        orient.write_text(text)
        code, stdout, err = run(capsys, "verify", "--input", str(src), "--orientation", str(orient))
        assert code == 2 and stdout == ""
        assert f"{orient}:{line}: {message}" in err

    @pytest.mark.parametrize("command", ["verify", "plot"])
    @pytest.mark.parametrize("radius", ["-1", "nan", "inf", "wide"])
    def test_bad_radius_option_exit_2(self, tmp_path, capsys, command, radius):
        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        orient.write_text("alpha 1.5707963267948966\nradius 1.0\n0 0.0\n1 3.141592653589793\n")
        argv = [command, "--input", str(src), "--orientation", str(orient), "--radius", radius]
        if command == "plot":
            argv += ["--out", str(tmp_path / "fig.svg")]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "argument --radius: " in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_range_ends_accepted_and_radius_overrides_file(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        orient.write_text(f"alpha {2 * math.pi!r}\nradius 0.0\n0 0.0\n1 0.0\n")
        code, stdout, _ = run(capsys, "verify", "--input", str(src), "--orientation", str(orient))
        assert code == 1 and "NOT-STRONG sccs=2" in stdout
        code, stdout, _ = run(capsys, "verify", "--input", str(src), "--orientation", str(orient), "--radius", "1")
        assert code == 0 and "STRONG sccs=1" in stdout


class TestVerifyOnTheMatrixRoute:
    """A dense blob of 120 points in a 6 x 6 box: the grid offers nearly every
    pair at r = 7, so build_comm_graph holds the n x n matrix."""

    @staticmethod
    def blob(tmp_path, theta=None):
        pts = random_connected_udg(120, 5, 6.0)
        a = orient_all_90(pts)
        if theta is not None:
            a = OrientationAssignment(alpha=a.alpha, theta=theta(pts), guaranteed_radius=a.guaranteed_radius)
        assert build_comm_graph(pts, a).matrix is not None
        src, orient = tmp_path / "pts.txt", tmp_path / "orient.txt"
        write_points(src, pts)
        write_orientation(orient, a)
        return pts, a, ["verify", "--input", str(src), "--orientation", str(orient)]

    def test_strong_skips_the_component_count(self, tmp_path, capsys, monkeypatch):
        _, _, argv = self.blob(tmp_path)

        def no_count(graph):
            raise AssertionError("a strong graph needs no component count")

        monkeypatch.setattr(cli, "component_labels", no_count)
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and stdout == "STRONG sccs=1\n"

    def test_not_strong_counts_components(self, tmp_path, capsys):
        # every wedge faces +x: the point of largest x reaches nobody
        pts, a, argv = self.blob(tmp_path, theta=lambda pts: {p.id: 0.0 for p in pts})
        expected = len(mutual_reach_components(len(pts), build_comm_graph(pts, a).out_edges))
        assert expected > 1
        code, stdout, _ = run(capsys, *argv)
        assert code == 1 and stdout == f"NOT-STRONG sccs={expected}\n"


class TestWitnessCommand:
    def test_collinear_four(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        code, _, _ = run(capsys, "witness", "--kind", "collinear", "--param", "4", "--out", str(out))
        assert code == 0
        assert len(read_points(out)) == 4

    def test_tripod_prints_check(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        code, stdout, _ = run(capsys, "witness", "--kind", "tripod180", "--param", "2", "--out", str(out))
        assert code == 0
        assert "witness_check PASS" in stdout
        assert len(read_points(out)) == 10

    def test_invalid_param_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "witness", "--kind", "collinear", "--param", "1", "--out", str(tmp_path / "w.txt"))
        assert code == 2


class TestPlotCommand:
    def test_svg_well_formed(self, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        src = tmp_path / "pts.txt"
        orient = tmp_path / "orient.txt"
        svg = tmp_path / "fig.svg"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0), Point(2, 0.5, 0.8)])
        code, _, _ = run(capsys, "orient", "--input", str(src), "--alpha", "90", "--out", str(orient))
        assert code == 0
        code, _, _ = run(capsys, "plot", "--input", str(src), "--orientation", str(orient), "--out", str(svg))
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        sectors = [e for e in root.iter() if e.tag.endswith("path") and "d" in e.attrib]
        assert len(sectors) >= 3  # one wedge per point (marker path extra)

    def test_points_only_mode(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        svg = tmp_path / "fig.svg"
        write_points(src, [Point(0, 0, 0), Point(1, 1, 0)])
        code, _, _ = run(capsys, "plot", "--input", str(src), "--out", str(svg))
        assert code == 0
        text = svg.read_text()
        assert "<circle" in text and "fill-opacity" not in text
        assert 'stroke="#444444"' in text  # the spanning-tree edge

    def test_disconnected_points_without_tree(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        svg = tmp_path / "fig.svg"
        write_points(src, [Point(0, 0, 0), Point(1, 0.5, 0), Point(2, 3, 0)])
        code, _, _ = run(capsys, "plot", "--input", str(src), "--out", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.count("<circle") == 3
        assert 'stroke="#444444"' not in text


class TestExperimentCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "experiment", "--alpha", "180", "--n", "10", "--trials", "4", "--seed", "3")
        assert code == 0
        assert "passed 4/4" in stdout

    def test_zero_trials(self, capsys):
        code, stdout, _ = run(capsys, "experiment", "--alpha", "90", "--n", "10", "--trials", "0", "--seed", "0")
        assert code == 0
        assert "passed 0/0" in stdout

    @pytest.mark.parametrize(
        "option, value",
        [("--n", v) for v in ("-1", "0", "1", "-3", "abc")] + [("--trials", v) for v in ("-1", "-3", "abc")],
    )
    def test_bad_count_exit_2(self, capsys, option, value):
        counts = {"--n": "10", "--trials": "2", option: value}
        with pytest.raises(SystemExit) as exit_:
            main(["experiment", "--alpha", "90", "--n", counts["--n"], "--trials", counts["--trials"]])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {option}: " in captured.err


class TestDeterminism:
    def test_outputs_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "pts.txt"
        write_points(src, random_connected_udg(20, 5, 4.0))
        outs = []
        for tag in ("a", "b"):
            orient = tmp_path / f"orient_{tag}.txt"
            svg = tmp_path / f"fig_{tag}.svg"
            wfile = tmp_path / f"wit_{tag}.txt"
            code1, out1, _ = run(capsys, "orient", "--input", str(src), "--alpha", "180", "--out", str(orient))
            code2, out2, _ = run(capsys, "plot", "--input", str(src), "--orientation", str(orient), "--out", str(svg))
            code3, out3, _ = run(capsys, "witness", "--kind", "tripod180", "--param", "2", "--out", str(wfile))
            code4, out4, _ = run(capsys, "experiment", "--alpha", "180", "--n", "8", "--trials", "3", "--seed", "1")
            assert (code1, code2, code3, code4) == (0, 0, 0, 0)
            outs.append(
                (orient.read_bytes(), svg.read_bytes(), wfile.read_bytes(), out1 + out2 + out3 + out4)
            )
        assert outs[0] == outs[1]
