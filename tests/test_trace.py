import pytest

from oppvid.trace import (
    ContactEvent,
    ContactKind,
    TraceError,
    check_synthetic_trace,
    contact_counts,
    format_trace,
    generate_synthetic_trace,
    parse_trace,
    remove_top_nodes,
    trace_nodes,
)


def test_parse_single_up_line():
    events = parse_trace("3600 CONN n3 n7 up")
    assert events == [ContactEvent(3600.0, ContactKind.UP, "n3", "n7")]


def test_down_without_up_is_pairing_error():
    with pytest.raises(TraceError, match=r"line 2: down without up for pair \('a', 'b'\) at t=100.0"):
        parse_trace("10 CONN a c up\n100 CONN a b down")


def test_empty_input_is_empty_trace():
    assert parse_trace("") == []


def test_comments_and_blank_lines_skipped():
    text = "# header\n\n10 CONN a b up\n20 CONN a b down\n"
    assert len(parse_trace(text)) == 2


def test_malformed_line_reports_line_number():
    with pytest.raises(TraceError, match="line 2"):
        parse_trace("10 CONN a b up\nnot a line\n20 CONN a b down")


def test_bad_time_reports_line_number():
    with pytest.raises(TraceError, match="line 1"):
        parse_trace("soon CONN a b up")


@pytest.mark.parametrize("time", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_time_reports_line_number(time):
    with pytest.raises(TraceError, match="line 2: non-finite"):
        parse_trace(f"10 CONN a b up\n{time} CONN a b down")


@pytest.mark.parametrize("line", ["-5 CONN a b up", "10 CONN a_sb b up", "10 CONN a a up"],
                         ids=["negative-time", "reserved-node-id", "self-contact"])
def test_event_rule_failures_report_line_number(line):
    with pytest.raises(TraceError, match="line 2: "):
        parse_trace(f"# header\n{line}")


@pytest.mark.parametrize("time,a,b", [
    (float("nan"), "a", "b"),
    (float("inf"), "a", "b"),
    (-1, "a", "b"),
    (10, "a b", "c"),
], ids=["nan", "inf", "negative", "whitespace-node"])
def test_contact_event_rejects_bad_values_when_built(time, a, b):
    with pytest.raises(TraceError):
        ContactEvent(time, ContactKind.UP, a, b)


def test_nested_up_rejected():
    with pytest.raises(TraceError, match="line 2: nested"):
        parse_trace("10 CONN a b up\n20 CONN a b up")


@pytest.mark.parametrize("text,lineno", [
    ("5 CONN a c up\n10 CONN a b up\n10 CONN a b down", 3),
    ("10 CONN b a down\n# the same contact, written up second\n10 CONN a b up", 1),
    ("5 CONN a b up\n10 CONN a b down\n10 CONN a b up\n10 CONN a b down", 4),
], ids=["up-first", "down-first", "after-a-contact"])
def test_zero_length_contact_named_with_its_down_line(text, lineno):
    message = "zero-length contact for pair ('a', 'b') at t=10.0: it goes up and down at the same time"
    with pytest.raises(TraceError) as info:
        parse_trace(text)
    assert str(info.value) == f"line {lineno}: {message}"


def test_back_to_back_contacts_stay_legal():
    events = parse_trace("5 CONN a b up\n10 CONN a b up\n10 CONN a b down\n20 CONN a b down")
    assert [(e.time, e.kind.value) for e in events] == [(5, "up"), (10, "down"), (10, "up"), (20, "down")]


def test_contact_may_stay_open_past_end_of_trace():
    events = parse_trace("10 CONN a b up")
    assert len(events) == 1  # the contact simply outlives the log


def test_self_contact_rejected():
    with pytest.raises(TraceError):
        parse_trace("10 CONN a a up")


def test_events_sorted_down_before_up_on_ties():
    text = "9 CONN a b down\n5 CONN a b up\n9 CONN a b up\n12 CONN a b down"
    events = parse_trace(text)
    assert [(e.time, e.kind) for e in events] == [
        (5.0, ContactKind.UP),
        (9.0, ContactKind.DOWN),
        (9.0, ContactKind.UP),
        (12.0, ContactKind.DOWN),
    ]


def test_pair_order_normalized():
    events = parse_trace("10 CONN zz aa up\n20 CONN aa zz down")
    assert events[0].pair == ("aa", "zz")


def test_format_parse_round_trip():
    events = parse_trace("10 CONN a b up\n25 CONN a b down\n30 CONN a c up\n31 CONN a c down")
    assert parse_trace(format_trace(events)) == events


def test_same_seed_same_trace_text():
    kwargs = dict(nodes=6, duration=20_000, mean_intercontact=3_000,
                  mean_contact_duration=300, seed=7)
    first = format_trace(generate_synthetic_trace(**kwargs))
    second = format_trace(generate_synthetic_trace(**kwargs))
    assert first == second and first


def test_different_seed_different_trace():
    kwargs = dict(nodes=6, duration=20_000, mean_intercontact=3_000, mean_contact_duration=300)
    assert format_trace(generate_synthetic_trace(seed=1, **kwargs)) != format_trace(
        generate_synthetic_trace(seed=2, **kwargs)
    )


def test_zero_duration_yields_empty_trace():
    assert generate_synthetic_trace(5, 0, 100, 10, seed=1) == []


def test_generated_trace_is_well_paired():
    events = generate_synthetic_trace(8, 50_000, 2_000, 200, seed=3)
    parse_trace(format_trace(events))  # re-validates pairing


def test_excluded_pair_never_meets():
    events = generate_synthetic_trace(
        5, 100_000, 1_000, 100, seed=2, excluded_pairs=[("n00", "n01")]
    )
    assert all(e.pair != ("n00", "n01") for e in events)
    assert any(e.pair == ("n00", "n02") for e in events)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        generate_synthetic_trace(2, 1000, 100, 10, seed=0)


@pytest.mark.parametrize("mean", [float("nan"), float("inf"), 0.0])
def test_non_finite_or_zero_means_rejected(mean):
    assert check_synthetic_trace(5, 1000, mean, 10) == [
        ("mean_intercontact", f"must be finite and positive, got {mean}")]
    with pytest.raises(ValueError, match="mean_contact_duration: must be finite and positive"):
        generate_synthetic_trace(5, 1000, 100, mean, seed=0)


def _trace_with_counts():
    # r1: 5 contacts, r2: 4, r3: 1; src/dst sprinkled in
    lines = []
    t = 0
    for peer, n in (("r1", 5), ("r2", 4), ("r3", 1)):
        for _ in range(n):
            lines.append(f"{t} CONN src {peer} up")
            lines.append(f"{t + 5} CONN src {peer} down")
            t += 10
    lines.append(f"{t} CONN src dst up")
    lines.append(f"{t + 5} CONN src dst down")
    return parse_trace("\n".join(lines))


def test_remove_top_node_drops_highest_count():
    events = _trace_with_counts()
    trimmed = remove_top_nodes(events, 1, protected={"src", "dst"})
    assert "r1" not in trace_nodes(trimmed)
    assert {"r2", "r3", "src", "dst"} <= trace_nodes(trimmed)


def test_remove_zero_is_identity():
    events = _trace_with_counts()
    assert remove_top_nodes(events, 0, protected={"src", "dst"}) == events


def test_remove_all_relays_leaves_endpoint_contacts():
    events = _trace_with_counts()
    trimmed = remove_top_nodes(events, 99, protected={"src", "dst"})
    assert trace_nodes(trimmed) == {"src", "dst"}
    assert len(trimmed) == 2


def test_protected_nodes_survive_even_with_top_counts():
    events = _trace_with_counts()
    counts = contact_counts(events)
    assert counts["src"] == max(counts.values())  # src touches everything
    trimmed = remove_top_nodes(events, 1, protected={"src", "dst"})
    assert "src" in trace_nodes(trimmed)


def test_removal_tie_broken_by_id_ascending():
    text = "\n".join([
        "0 CONN src r9 up", "5 CONN src r9 down",
        "10 CONN src r1 up", "15 CONN src r1 down",
    ])
    events = parse_trace(text)
    trimmed = remove_top_nodes(events, 1, protected={"src"})
    assert "r1" not in trace_nodes(trimmed)  # r1 == r9 on counts; r1 wins the tie
    assert "r9" in trace_nodes(trimmed)


def test_contact_counts():
    events = _trace_with_counts()
    counts = contact_counts(events)
    assert counts["r1"] == 5 and counts["r2"] == 4 and counts["r3"] == 1
    assert counts["src"] == 11
