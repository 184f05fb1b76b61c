import math

import pytest

from sectornet.errors import ParseError
from sectornet.fileio import read_orientation, read_points, write_orientation, write_points
from sectornet.instances import random_connected_udg
from sectornet.orientation import OrientationAssignment


class TestPointFile:
    def test_round_trip(self, tmp_path):
        pts = random_connected_udg(25, 4, 4.0)
        path = tmp_path / "pts.txt"
        write_points(path, pts, comment="round trip")
        back = read_points(path)
        assert [(p.id, p.x, p.y) for p in back] == [(p.id, p.x, p.y) for p in pts]

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# header\n\n0 0.0 0.0\n\n# middle\n1 1.5 -2.25\n")
        pts = read_points(path)
        assert [(p.id, p.x, p.y) for p in pts] == [(0, 0.0, 0.0), (1, 1.5, -2.25)]

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0 0.0 0.0\n1 nope 2.0\n")
        with pytest.raises(ParseError) as err:
            read_points(path)
        assert err.value.line == 2

    def test_wrong_arity_reports_line(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# c\n0 1.0\n")
        with pytest.raises(ParseError) as err:
            read_points(path)
        assert err.value.line == 2

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0 0.0 0.0\n0 1.0 1.0\n")
        with pytest.raises(ParseError) as err:
            read_points(path)
        assert err.value.line == 2

    def test_non_contiguous_ids(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0 0.0 0.0\n2 1.0 1.0\n")
        with pytest.raises(ParseError):
            read_points(path)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("0 0.0 0.0\n-1 1.0 0.0\n", 2, "point id must be non-negative"),
            ("0 0.0 0.0\n1 nan 0.0\n", 2, "coordinates must be finite"),
            ("0 0.0 -inf\n", 1, "coordinates must be finite"),
            ("", 0, "no points in file"),
            ("# comments only\n\n", 0, "no points in file"),
        ],
        ids=["negative-id", "nan-x", "inf-y", "empty", "comments-only"],
    )
    def test_rejected_file_reports_line(self, tmp_path, text, line, message):
        path = tmp_path / "pts.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_points(path)
        assert (err.value.line, err.value.message) == (line, message)


class TestOrientationFile:
    def test_round_trip(self, tmp_path):
        theta = {0: 0.1234567890123, 1: 3.9876543210987, 2: 0.0}
        a = OrientationAssignment(alpha=math.pi, theta=theta, guaranteed_radius=1 + math.sqrt(3))
        path = tmp_path / "orient.txt"
        write_orientation(path, a)
        back = read_orientation(path)
        assert back.alpha == a.alpha
        assert back.guaranteed_radius == a.guaranteed_radius
        assert back.theta == a.theta

    def test_headers_required_first(self, tmp_path):
        path = tmp_path / "orient.txt"
        path.write_text("0 1.0\nalpha 3.14\nradius 2.0\n")
        with pytest.raises(ParseError) as err:
            read_orientation(path)
        assert err.value.line == 1

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "orient.txt"
        path.write_text("alpha 3.14\nradius 2.0\n0 1.0\n0 2.0\n")
        with pytest.raises(ParseError) as err:
            read_orientation(path)
        assert err.value.line == 4

    def test_theta_normalized_on_read(self, tmp_path):
        path = tmp_path / "orient.txt"
        path.write_text(f"alpha {math.pi!r}\nradius 1.0\n0 {2 * math.pi!r}\n")
        back = read_orientation(path)
        assert back.theta[0] == 0.0

    @pytest.mark.parametrize(
        "text,line",
        [
            ("alpha 100.0\nradius 1.0\n0 1.0\n", 1),
            ("alpha -1.0\nradius 1.0\n0 1.0\n", 1),
            ("alpha 0.0\nradius 1.0\n0 1.0\n", 1),
            ("alpha 6.283185307179587\nradius 1.0\n0 1.0\n", 1),
            ("alpha 3.14\nradius -2.0\n0 1.0\n", 2),
            ("radius -1e-300\nalpha 3.14\n0 1.0\n", 1),
        ],
    )
    def test_header_out_of_range_reports_line(self, tmp_path, text, line):
        path = tmp_path / "orient.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_orientation(path)
        assert err.value.line == line

    def test_header_range_ends_accepted(self, tmp_path):
        path = tmp_path / "orient.txt"
        path.write_text(f"alpha {2 * math.pi!r}\nradius 0.0\n0 1.0\n")
        back = read_orientation(path)
        assert back.alpha == 2 * math.pi and back.guaranteed_radius == 0.0

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("alpha 3.14\nalpha 3.14\nradius 1.0\n0 1.0\n", 2, "malformed alpha header"),
            ("alpha 3.14\nradius 1.0\nradius 2.0\n0 1.0\n", 3, "malformed radius header"),
            ("alpha 3.14 2\nradius 1.0\n0 1.0\n", 1, "malformed alpha header"),
            ("alpha 3.14\nradius 1.0\n0 1.0 2.0\n", 3, "expected '<id> <theta>', got '0 1.0 2.0'"),
            ("alpha 3.14\nradius 1.0\nzero 1.0\n", 3, "invalid literal for int() with base 10: 'zero'"),
            ("alpha 3.14\nradius 1.0\n", 0, "missing alpha/radius header or orientations"),
            ("", 0, "missing alpha/radius header or orientations"),
        ],
        ids=["alpha-twice", "radius-twice", "alpha-two-values", "theta-line-arity", "id-not-int", "no-orientations", "empty"],
    )
    def test_malformed_file_reports_line(self, tmp_path, text, line, message):
        path = tmp_path / "orient.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_orientation(path)
        assert (err.value.line, err.value.message) == (line, message)

    def test_malformed_header_value_reports_line(self, tmp_path):
        path = tmp_path / "orient.txt"
        path.write_text("alpha 3.14\nradius wide\n0 1.0\n")
        with pytest.raises(ParseError) as err:
            read_orientation(path)
        assert err.value.line == 2
