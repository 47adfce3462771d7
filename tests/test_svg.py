import xml.etree.ElementTree as ET

import numpy as np
import pytest

from randlp import svg as rsvg
from randlp import (
    GeneratorParams,
    Inequality,
    UnsupportedDimensionError,
    generate_sequential,
    render_svg,
)

from randlp.geometry import row_norms

from conftest import with_rows


def elements(svg, kind):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.tag.split("}")[-1] == kind]


def lines_with_class(svg, cls):
    return [el for el in elements(svg, "line") if el.get("class") == cls]


def polygon_points(svg):
    polygon = elements(svg, "polygon")[0]
    return [tuple(map(float, tok.split(","))) for tok in polygon.get("points").split()]


def segment(el):
    return (
        np.array([float(el.get("x1")), float(el.get("y1"))]),
        np.array([float(el.get("x2")), float(el.get("y2"))]),
    )


def line_distance_to(point, el):
    p1, p2 = segment(el)
    d = p2 - p1
    normal = np.array([-d[1], d[0]])
    normal /= np.linalg.norm(normal)
    return abs(float(normal @ (point - p1)))


@pytest.fixture(scope="module")
def demo_svg():
    inst, _ = generate_sequential(GeneratorParams(n=2, d=5, seed=42))
    return render_svg(inst)


def test_element_census(demo_svg):
    assert len(lines_with_class(demo_svg, "support")) == 5
    assert len(lines_with_class(demo_svg, "random")) == 5
    assert len(lines_with_class(demo_svg, "objective")) == 1
    circles = elements(demo_svg, "circle")
    assert len(circles) == 2
    assert {float(c.get("r")) for c in circles} == {50.0, 100.0}
    for c in circles:
        assert c.get("class") == "ball"
        assert c.get("stroke-dasharray")
    assert len(elements(demo_svg, "polygon")) == 1


def test_coordinates_are_math_space(demo_svg):
    # the enclosing group flips y, so raw numbers are problem coordinates
    root = ET.fromstring(demo_svg)
    groups = [el for el in root.iter() if el.tag.split("}")[-1] == "g"]
    assert len(groups) == 1
    assert groups[0].get("transform") == "translate(0,200) scale(1,-1)"
    circles = elements(demo_svg, "circle")
    for c in circles:
        assert float(c.get("cx")) == 100.0
        assert float(c.get("cy")) == 100.0


def test_random_lines_sit_in_the_annulus(demo_svg):
    center = np.array([100.0, 100.0])
    for el in lines_with_class(demo_svg, "random"):
        dist = line_distance_to(center, el)
        assert 50.0 < dist <= 100.0 + 1e-6


def test_support_lines_match_canonical_rows(demo_svg):
    # x=200, y=200, x=0, y=0 and x+y=300, each recoverable from endpoints
    center = np.array([100.0, 100.0])
    dists = sorted(line_distance_to(center, el) for el in lines_with_class(demo_svg, "support"))
    expect = sorted([100.0, 100.0, 100.0, 100.0, 100.0 / np.sqrt(2.0)])
    assert np.allclose(dists, expect, atol=1e-9)


def test_objective_line_passes_origin_along_objective(demo_svg):
    el = lines_with_class(demo_svg, "objective")[0]
    p1, p2 = segment(el)
    d = p2 - p1
    # parallel to c = (200, 100) and through the origin
    assert abs(d[0] * 100.0 - d[1] * 200.0) <= 1e-9 * np.linalg.norm(d) * 200.0
    assert line_distance_to(np.array([0.0, 0.0]), el) <= 1e-9


def test_support_only_polygon_has_five_corners():
    inst, _ = generate_sequential(GeneratorParams(n=2, d=0, seed=0))
    svg = render_svg(inst)
    polygon = elements(svg, "polygon")[0]
    pts = [tuple(map(float, tok.split(","))) for tok in polygon.get("points").split()]
    assert len(pts) == 5
    expect = {(0.0, 0.0), (200.0, 0.0), (200.0, 100.0), (100.0, 200.0), (0.0, 200.0)}
    got = {(round(x, 6), round(y, 6)) for x, y in pts}
    assert got == expect


def test_a_row_outside_the_view_leaves_no_line_and_no_region():
    # x + y <= -1000 crosses no edge of the [-30, 230] view, and with
    # x, y >= 0 it leaves the region empty
    inst, _ = generate_sequential(GeneratorParams(n=2, d=0, seed=0))
    far = with_rows(inst, random=(Inequality([1.0, 1.0], -1000.0),))
    svg = render_svg(far)
    assert lines_with_class(svg, "random") == []
    assert len(lines_with_class(svg, "support")) == 5
    assert elements(svg, "polygon") == []


def test_render_is_deterministic():
    inst, _ = generate_sequential(GeneratorParams(n=2, d=5, seed=42))
    assert render_svg(inst) == render_svg(inst)


@pytest.mark.parametrize("n", [1, 3])
def test_render_rejects_other_dimensions(n):
    inst, _ = generate_sequential(GeneratorParams(n=n, d=0, seed=0))
    with pytest.raises(UnsupportedDimensionError):
        render_svg(inst)


def support_only():
    return generate_sequential(GeneratorParams(n=2, d=0, seed=0))[0]


def with_bounding_rows(inst, edits):
    support = list(inst.support)
    for i, q in edits.items():
        support[i] = q
    return with_rows(inst, support=tuple(support))


def shoelace_area(pts):
    x, y = np.array(pts).T
    return 0.5 * float(x @ np.roll(y, -1) - np.roll(x, -1) @ y)


def test_an_unbounded_region_is_drawn_as_its_part_inside_the_view():
    # bounding row 0 becomes y <= 200 and the diagonal -x - y <= 0: the
    # region x >= 0, 0 <= y <= 200 runs on past the view's right edge x = 230
    inst = with_bounding_rows(support_only(), {0: Inequality([0.0, 1.0], 200.0),
                                               4: Inequality([-1.0, -1.0], 0.0)})
    pts = polygon_points(render_svg(inst))
    assert len(pts) == 4
    got = {(round(x, 9), round(y, 9)) for x, y in pts}
    assert got == {(0.0, 0.0), (230.0, 0.0), (230.0, 200.0), (0.0, 200.0)}
    # counterclockwise, as every polygon of the picture
    assert shoelace_area(pts) == pytest.approx(230.0 * 200.0)


@pytest.mark.parametrize("b", [0.0, 300.0])
def test_a_zero_bounding_row_draws_no_line_and_cuts_nothing(b):
    # the diagonal's coefficients zeroed: 0 <= b holds everywhere, so the
    # region is the square the other four rows bound
    svg = render_svg(with_bounding_rows(support_only(), {4: Inequality([0.0, 0.0], b)}))
    assert len(lines_with_class(svg, "support")) == 4
    got = {(round(x, 9), round(y, 9)) for x, y in polygon_points(svg)}
    assert got == {(0.0, 0.0), (200.0, 0.0), (200.0, 200.0), (0.0, 200.0)}


def test_a_nan_bounding_row_draws_no_line_and_no_region():
    # a nan side is neither kept nor cut, as the former geometry had it
    svg = render_svg(with_bounding_rows(support_only(), {0: Inequality([np.nan, 0.0], 200.0)}))
    assert len(lines_with_class(svg, "support")) == 4
    assert elements(svg, "polygon") == []


def test_a_line_touching_a_corner_of_the_view_draws_nothing():
    # x + y = -60 meets the [-30, 230] view at its corner (-30, -30) alone
    assert rsvg._clip_line((1.0, 1.0), -60.0, -30.0, 230.0) is None
    assert rsvg._clip_line((1.0, 0.0), -30.0, -30.0, 230.0) is not None


def former_clip_line(a, bval: float, lo: float, hi: float):
    """``svg._clip_line`` as it was when it met the box edges one by one."""
    a1, a2 = float(a[0]), float(a[1])
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    pts: list[tuple[float, float]] = []
    if a2 != 0.0:
        for x in (lo, hi):
            y = (bval - a1 * x) / a2
            if lo - tol <= y <= hi + tol:
                pts.append((x, y))
    if a1 != 0.0:
        for y in (lo, hi):
            x = (bval - a2 * y) / a1
            if lo - tol <= x <= hi + tol:
                pts.append((x, y))
    # dedup corner hits, then take the extreme pair along the line direction
    uniq: list[tuple[float, float]] = []
    for pt in pts:
        if not any(abs(pt[0] - u[0]) <= tol and abs(pt[1] - u[1]) <= tol for u in uniq):
            uniq.append(pt)
    if len(uniq) < 2:
        return None
    along = [(-a2 * x + a1 * y, (x, y)) for x, y in uniq]
    along.sort(key=lambda s: s[0])
    return along[0][1], along[-1][1]


def former_feasible_polygon(rows):
    """``svg._feasible_polygon`` as it was when it intersected every pair of
    rows: the vertices of the region, ordered around their centroid."""
    A = np.stack([q.a for q in rows])
    b = np.array([q.b for q in rows])
    slack = b + 1e-7 * np.maximum(1.0, np.abs(b))
    norms = row_norms(A)
    pts: list[np.ndarray] = []
    m = len(rows)
    for i in range(m):
        for j in range(i + 1, m):
            det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
            if abs(det) <= 1e-12 * norms[i] * norms[j]:
                continue
            x = np.array(
                [
                    (b[i] * A[j, 1] - b[j] * A[i, 1]) / det,
                    (A[i, 0] * b[j] - A[j, 0] * b[i]) / det,
                ]
            )
            if not np.all(A @ x <= slack):
                continue
            if not any(np.max(np.abs(x - p)) <= 1e-7 for p in pts):
                pts.append(x)
    if len(pts) < 3:
        return None
    center = np.mean(pts, axis=0)
    pts.sort(key=lambda p: np.arctan2(p[1] - center[1], p[0] - center[0]))
    return pts


def view(inst):
    margin = 0.15 * inst.params.alpha
    return -margin, inst.params.alpha + margin


def assert_same_points(got, want, tol):
    """got and want hold the same points within tol, in any order."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert got.shape == want.shape
    dist = np.abs(got[:, None] - want[None]).max(axis=2)
    assert dist.min(axis=0).max() <= tol
    assert dist.min(axis=1).max() <= tol


def assert_matches_former_geometry(inst):
    lo, hi = view(inst)
    tol = 1e-9 * inst.params.alpha
    polygon = rsvg._feasible_polygon(inst.constraints, lo, hi)
    former = former_feasible_polygon(list(inst.constraints))
    assert (polygon is None) == (former is None)
    if former is not None:
        assert_same_points(polygon, former, tol)
    lines = [(q.a, q.b) for q in inst.constraints] + [((-inst.c[1], inst.c[0]), 0.0)]
    for a, b in lines:
        seg, want = rsvg._clip_line(a, b, lo, hi), former_clip_line(a, b, lo, hi)
        assert (seg is None) == (want is None)
        if want is not None:
            assert_same_points(seg, want, tol)
    return polygon


# d = 5 takes about 0.1 s an instance, so only the demo's seed runs at it
@pytest.mark.parametrize("d, seeds", [(d, range(12)) for d in range(5)] + [(5, [42])])
def test_clippers_match_the_former_geometry(d, seeds):
    for seed in seeds:
        inst, _ = generate_sequential(GeneratorParams(n=2, d=d, seed=seed))
        assert_matches_former_geometry(inst)


def test_a_row_through_a_vertex_adds_no_duplicate():
    # x - y <= vx - vy passes exactly through the vertex v = (200, 100) of
    # the bounding rows, as the clipper computes it, and cuts off (200, 0)
    inst = support_only()
    lo, hi = view(inst)
    vx, vy = min(rsvg._feasible_polygon(inst.constraints, lo, hi),
                 key=lambda v: abs(v[0] - 200.0) + abs(v[1] - 100.0))
    cut = with_rows(inst, random=(Inequality([1.0, -1.0], vx - vy),))
    polygon = assert_matches_former_geometry(cut)
    assert len(polygon) == 5
    assert (vx, vy) in polygon
    for k in range(len(polygon)):
        assert polygon[k - 1] != polygon[k]
    got = {(round(x, 9), round(y, 9)) for x, y in polygon}
    assert got == {(0.0, 0.0), (100.0, 0.0), (200.0, 100.0), (100.0, 200.0), (0.0, 200.0)}
