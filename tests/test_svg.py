import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from randlp import (
    GeneratorParams,
    Inequality,
    UnsupportedDimensionError,
    generate_sequential,
    render_svg,
)


def elements(svg, kind):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.tag.split("}")[-1] == kind]


def lines_with_class(svg, cls):
    return [el for el in elements(svg, "line") if el.get("class") == cls]


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
    far = replace(inst, random=(Inequality([1.0, 1.0], -1000.0),))
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
