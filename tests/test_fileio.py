import pytest

from efp.fileio import (
    FormatError,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from efp.generators import SeededRng, generate, preset

from conftest import random_instance


FIG1_TEXT = """EFP 1
items 3
bidders 4
edge 1 1 4
edge 1 2 5
edge 1 3 6
edge 2 2 7
edge 2 4 6
edge 3 1 3
edge 3 3 2
edge 3 4 2
"""


def test_serialize_worked_instance(fig1):
    assert serialize_instance(fig1) == FIG1_TEXT


def test_parse_worked_instance(fig1):
    assert parse_instance(FIG1_TEXT) == fig1


def test_fractional_values_trimmed():
    inst = random_instance(SeededRng(1), 2, 2)
    text = serialize_instance(inst)
    for line in text.splitlines()[3:]:
        value = line.split(" ")[3]
        assert not value.endswith("0") or "." not in value
        assert len(value.split(".")[-1]) <= 9 if "." in value else True


def test_round_trip_random_instances():
    rng = SeededRng(8)
    for _ in range(50):
        inst = random_instance(rng, 1 + rng.randint(6), 1 + rng.randint(6))
        text = serialize_instance(inst)
        back = parse_instance(text)
        assert back.isclose(inst, tol=1e-9)
        assert serialize_instance(back) == text


def test_round_trip_generated_instances():
    for model in ("characteristics", "neighborhood", "popularity"):
        inst = generate(model, preset(model, 10), 3)
        assert parse_instance(serialize_instance(inst)).isclose(inst, tol=1e-9)


# (text, fragment, line at fault, the edge in file indices); ids keep the
# "text-fragment" form
_MALFORMED = [
    ("", "empty", 1, None),
    ("EFP 2\nitems 1\nbidders 1\n", "header", 1, None),
    ("EFP 1\nbidders 1\n", "items", 2, None),
    ("EFP 1\nitems 1\nbidders 0\n", "below 1", 3, None),
    ("EFP 1\nitems 1\nbidders 1\nedge 0 1 4\n", "1-based", 4, None),
    ("EFP 1\nitems 1\nbidders 1\nedge 1 1 4 junk\n", "edge", 4, None),
    ("EFP 1\nitems 1\nbidders 1\nwhat 1 1 4\n", "edge", 4, None),
    ("EFP 1\nitems 1\nbidders 1\nedge 1 1 -4\n", "positive", 4, "item 1, bidder 1"),
    ("EFP 1\nitems 1\nbidders 2\nedge 1 1 4\nedge 1 2 inf\n", "finite", 5,
     "item 1, bidder 2"),
    ("EFP 1\nitems 1\nbidders 1\nedge 1 1 4\nedge 1 1 4\n", "duplicate", 5,
     "item 1, bidder 1"),
    ("EFP 1\nitems 2\nbidders 3\nedge 2 3 4\nedge 1 1 4\nedge 2 3 5\n", "duplicate",
     6, "item 2, bidder 3"),
    ("EFP 1\nitems 1\nbidders 1\nedge 2 1 4\n", "outside", 4, "edge (2, 1)"),
]


@pytest.mark.parametrize(
    "text,fragment,line_no,edge",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _MALFORMED],
)
def test_malformed_documents_rejected(text, fragment, line_no, edge):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert fragment in str(err.value)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")
    if edge is not None:
        assert edge in str(err.value)


def test_save_and_load(tmp_path, fig1):
    path = tmp_path / "market.efp"
    save_instance(fig1, path)
    assert load_instance(path) == fig1
