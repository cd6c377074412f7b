import cli_table


def test_every_row_of_the_cli_table_is_unchanged():
    want = cli_table.TABLE.read_text(encoding="utf-8")
    got = cli_table.render()
    if got != want:
        old, new = cli_table.sections(want), cli_table.sections(got)
        changed = [key for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)]
        first = changed[0]
        assert new.get(first) == old.get(first), "%d row(s) changed: %s" % (
            len(changed), "; ".join(changed))
    assert got == want
