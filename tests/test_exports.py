import gausskl


def test_every_exported_name_resolves_once():
    names = gausskl.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gausskl, name)]
    assert missing == []
