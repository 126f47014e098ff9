from tetgroups import (Assignment, TransitiveRep, coloring_of,
                       enumerate_classes, evaluate_word)

from conftest import parse_cycles


def test_coloring_of_index2_class(t10_full):
    cls = enumerate_classes(t10_full, 2)[0]
    col = coloring_of(cls)
    assert col.as_json_dict() == {
        "index": 2,
        "coset_words": ["", "S"],
        "action": {"P": "(1)", "Q": "(1)", "R": "(1)", "S": "(12)"},
    }
    assert col.as_csv_rows() == [
        ("P", 1, 1), ("P", 2, 2), ("Q", 1, 1), ("Q", 2, 2),
        ("R", 1, 1), ("R", 2, 2), ("S", 1, 2), ("S", 2, 1),
    ]


def test_coset_words_carry_color_one_to_each_color(t10_kleinian):
    for n in (2, 3, 4):
        for cls in enumerate_classes(t10_kleinian, n):
            col = coloring_of(cls)
            assert len(col.transversal) == cls.index
            for color, word in enumerate(col.transversal, start=1):
                assert evaluate_word(word, col.rep.assignment).apply(1) == color


def test_coloring_json_rebuilds_the_action(t10_full, t10_kleinian):
    for pres in (t10_full, t10_kleinian):
        for cls in enumerate_classes(pres, 3):
            payload = coloring_of(cls).as_json_dict()
            n = payload["index"]
            perms = tuple(parse_cycles(payload["action"][name], n)
                          for name in pres.generator_names)
            rebuilt = TransitiveRep(pres, Assignment(pres.generator_names, perms))
            assert rebuilt.assignment == cls.rep.assignment


def test_csv_rows_cover_every_generator_color_pair(t10_kleinian):
    cls = enumerate_classes(t10_kleinian, 4)[0]
    rows = coloring_of(cls).as_csv_rows()
    assert len(rows) == 3 * 4
    assert {(gen, color) for gen, color, _ in rows} == {
        (g, c) for g in "abc" for c in (1, 2, 3, 4)}
    image_of = dict(zip(cls.rep.assignment.names, cls.rep.assignment.perms))
    for gen, color, image in rows:
        assert image == image_of[gen].apply(color)

