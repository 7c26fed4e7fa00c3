"""Flat config parsing: defaults, errors, overrides, canonical echo."""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import pytest

from conscient_sim.configio import (
    ENTRIES,
    default_values,
    parse_config,
    parse_config_text,
    render_config,
)
from conscient_sim.emotions import EmotionParams
from conscient_sim.errors import ConfigError, bound, check_bounds
from conscient_sim.optimizer import GAConfig
from conscient_sim.world import WorldConfig


def test_empty_text_yields_declared_defaults():
    bundle = parse_config_text("")
    assert bundle.world == WorldConfig()
    assert bundle.ga == GAConfig()
    assert set(bundle.effective) == {e.key for e in ENTRIES}


def test_defaults_table_is_total():
    values = default_values()
    assert len(values) == len(ENTRIES)
    for entry in ENTRIES:
        assert values[entry.key] == entry.render(entry.default)


def test_values_parse_into_bundle():
    text = """
# run shape
world.resolution = 12
world.n_agents = 4
world.master_seed = 99

agent.t_awake = 25
dream.length = 5
emotion.threshold = 0.6
ga.eval_seeds = 7, 8, 9
"""
    bundle = parse_config_text(text)
    assert bundle.world.resolution == 12
    assert bundle.world.n_agents == 4
    assert bundle.world.master_seed == 99
    assert bundle.world.agent.t_awake == 25
    assert bundle.world.agent.dream.length == 5
    assert bundle.world.agent.emotion.threshold == 0.6
    assert bundle.ga.eval_seeds == (7, 8, 9)


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("world.resolution = 8\nworld.sheep = 3\n")
    msg = str(exc.value)
    assert "line 2" in msg and "world.sheep" in msg


def test_duplicate_key_names_key_and_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("agent.t_awake = 5\n\nagent.t_awake = 6\n")
    msg = str(exc.value)
    assert "line 3" in msg and "agent.t_awake" in msg and "duplicate" in msg


def test_type_mismatch_names_key_line_and_type():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("world.resolution = fast\n")
    msg = str(exc.value)
    assert "line 1" in msg and "world.resolution" in msg and "integer" in msg
    with pytest.raises(ConfigError) as exc:
        parse_config_text("emotion.threshold = maybe\n")
    assert "number" in str(exc.value)
    # a list holds no empty entry, as `render_config` writes none
    for key, val, typename in (
        ("ga.eval_seeds", "11,,12", "integer list"),
        ("ga.eval_seeds", "11,", "integer list"),
        ("ga.eval_seeds", "", "integer list"),
        ("world.stimulus_modalities", "music,,recipe", "string list"),
        ("world.stimulus_modalities", "music,", "string list"),
        ("world.stimulus_modalities", ",", "string list"),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"\n{key} = {val}\n")
        assert str(exc.value) == f"line 2: key {key}: expected {typename}, got {val!r}"
    # an empty modality list is a list of none
    assert parse_config_text("world.stimulus_modalities =\n").world.stimulus_modalities == ()


def test_missing_equals_sign_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("world.resolution 8\n")
    assert "line 1" in str(exc.value)


def test_float_values_must_be_finite():
    with pytest.raises(ConfigError):
        parse_config_text("emotion.threshold = inf\n")
    with pytest.raises(ConfigError):
        parse_config_text("emotion.threshold = nan\n")


def test_invalid_value_surfaces_config_error():
    # parses fine as an integer, rejected by the dataclass validation
    with pytest.raises(ConfigError):
        parse_config_text("world.resolution = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("dream.step_lower = 4\ndream.step_upper = 2\n")


def test_overrides_apply_and_validate():
    bundle = parse_config_text(
        "world.master_seed = 5\n", overrides={"world.master_seed": "99"}
    )
    assert bundle.world.master_seed == 99
    assert bundle.effective["world.master_seed"] == "99"
    with pytest.raises(ConfigError):
        parse_config_text("", overrides={"world.sheep": "1"})
    for key, val, typename in (
        ("world.master_seed", "abc", "integer"),
        ("emotion.threshold", "nan", "number"),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("", overrides={key: val})
        assert str(exc.value) == f"override: key {key}: expected {typename}, got {val!r}"


# where each section's dataclass sits in a parsed bundle
_SECTION_IN_BUNDLE = {
    "world": lambda b: b.world,
    "agent": lambda b: b.world.agent,
    "dream": lambda b: b.world.agent.dream,
    "emotion": lambda b: b.world.agent.emotion,
    "kernel": lambda b: b.world.kernel,
    "ga": lambda b: b.ga,
}


def _non_default(default):
    """A value unlike the default that every config validation accepts."""
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default / 2 if default else 0.25
    if isinstance(default[0], int):
        return tuple(x + 1 for x in default)
    return default[:1]


@pytest.mark.parametrize(
    "entry",
    [e for e in ENTRIES if e.key not in ("world.content_graph", "world.style_graph")],
    ids=lambda e: e.key,
)
def test_every_key_reaches_its_field(entry):
    value = _non_default(entry.default)
    assert value != entry.default
    bundle = parse_config_text(f"{entry.key} = {entry.render(value)}\n")
    section, name = entry.key.split(".")
    assert getattr(_SECTION_IN_BUNDLE[section](bundle), name) == value


# each section's config dataclass, as a default bundle holds it
_SECTION_CLASS = {
    section: type(get(parse_config_text(""))) for section, get in _SECTION_IN_BUNDLE.items()
}
FLOAT_FIELDS = [
    f"{section}.{f.name}"
    for section, cls in _SECTION_CLASS.items()
    for f in fields(cls)
    if get_type_hints(cls)[f.name] is float
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_every_float_field_rejects_non_finite_values(key, value):
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=re.escape(key)):
        _SECTION_CLASS[section](**{name: value})


def _bound_ends():
    """(key, value just past an end, that end if closed else None) per declared end."""
    out = []
    for section, cls in _SECTION_CLASS.items():
        for f in fields(cls):
            lo, hi, strict = f.metadata.get("bound", (None, None, False))
            for end, step in ((lo, -1), (hi, 1)):
                if end is None:
                    continue
                if strict:
                    out.append((f"{section}.{f.name}", end, None))
                elif get_type_hints(cls)[f.name] is int:
                    out.append((f"{section}.{f.name}", end + step, end))
                else:
                    out.append((f"{section}.{f.name}", math.nextafter(end, step * math.inf), end))
    return out


@pytest.mark.parametrize("key,past,end", _bound_ends(), ids=str)
def test_every_bound_rejects_past_each_end_and_accepts_a_closed_end(key, past, end):
    # the key in the message is the section string its __post_init__ passes
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"{key} = {past!r}\n")
    assert str(exc.value).startswith(f"{key} must be ")
    if end is not None:
        parse_config_text(f"{key} = {end!r}\n")


# Integer keys with no upper end, each with its reason. Any other integer key
# needs a `hi` or an `at_most` partner, so that no value of it can ask for a
# draw or a loop that never ends.
UNBOUNDED_ALLOWED = {
    "world.total_ticks": "a run length",
    "dream.length": "a run length",
    "ga.generations": "a run length",
    "agent.t_awake": "a period",
    "agent.t_asleep": "a period",
    "agent.photo_period": "a period",
    "agent.style_every": "a period",
    "agent.movement_budget": "a budget",
    "ga.movement_budget": "a budget",
    "ga.population_size": "a population",
    "ga.tournament_size": "a population",
    "world.n_agents": "a size WorldConfig checks by hand against resolution**2",
    "world.reward_count": "a size WorldConfig checks by hand against resolution**2",
}


def _unbounded_int_keys() -> set[str]:
    """Integer keys whose `bound` has neither a `hi` nor an `at_most` partner."""
    return {
        f"{section}.{f.name}"
        for section, cls in _SECTION_CLASS.items()
        for f in fields(cls)
        if get_type_hints(cls)[f.name] is int
        and f.metadata.get("bound", (None, None, False))[1] is None
        and f.metadata.get("at_most") is None
    }


def test_every_unbounded_integer_key_is_named_with_its_reason():
    unbounded = _unbounded_int_keys()
    assert sorted(unbounded - UNBOUNDED_ALLOWED.keys()) == []
    # a listed key that gained an upper end, or names no key, is stale
    assert sorted(UNBOUNDED_ALLOWED.keys() - unbounded) == []


def _at_most_rules():
    """(key, partner key, partner's default) per declared `at_most` rule."""
    out = []
    for section, cls in _SECTION_CLASS.items():
        for f in fields(cls):
            other = f.metadata.get("at_most")
            if other is not None:
                out.append((f"{section}.{f.name}", f"{section}.{other}", getattr(cls(), other)))
    return out


@pytest.mark.parametrize("key,partner,default", _at_most_rules(), ids=str)
def test_every_at_most_rule_accepts_its_partner_and_rejects_one_step_above(
    key, partner, default
):
    parse_config_text(f"{key} = {default!r}\n")
    above = default + 1 if isinstance(default, int) else math.nextafter(default, math.inf)
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"{key} = {above!r}\n")
    assert str(exc.value) == f"{key} {above} exceeds {partner} {default}"


def test_bound_messages_keep_their_text():
    for text, message in (
        ("agent.t_awake = 0", "agent.t_awake must be >= 1, got 0"),
        ("kernel.amplitude = 0", "kernel.amplitude must be > 0, got 0.0"),
        ("agent.visit_peak = 0", "agent.visit_peak must be < 0, got 0.0"),
        (
            "world.stimulus_probability = 1.5",
            "world.stimulus_probability must be in [0, 1], got 1.5",
        ),
        ("world.resolution = 129", "world.resolution must be in [2, 128], got 129"),
        (
            "agent.visit_width = 1e-200",
            "agent.visit_width 1e-200 is out of range: 2 * visit_width**2 underflows to 0",
        ),
        (
            "world.reward_width = 1e-200",
            "world.reward_width 1e-200 is out of range: 2 * reward_width**2 underflows to 0",
        ),
        ("dream.step_lower = 4", "dream.step_lower 4 exceeds dream.step_upper 3"),
        ("emotion.delta_lower = -0.1", "emotion.delta_lower must be >= 0, got -0.1"),
        ("emotion.delta_upper = 1.5", "emotion.delta_upper must be <= 1, got 1.5"),
        (
            "emotion.delta_lower = 0.1",
            "emotion.delta_lower 0.1 exceeds emotion.delta_upper 0.08",
        ),
        (
            "emotion.valence_low = 0.9",
            "emotion.valence_low 0.9 exceeds emotion.valence_high 0.5",
        ),
        ("ga.elite_count = 0", "ga.elite_count must be >= 1, got 0"),
        ("ga.elite_count = 17", "ga.elite_count 17 exceeds ga.population_size 16"),
        (
            "world.master_seed = 18446744073709551616",
            "world.master_seed must be in [0, 18446744073709551615], "
            "got 18446744073709551616",
        ),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert str(exc.value) == message
    with pytest.raises(ConfigError) as exc:
        WorldConfig(reward_peak=math.nan)
    assert str(exc.value) == "world.reward_peak must be finite, got nan"
    with pytest.raises(ConfigError) as exc:
        EmotionParams(delta_upper=math.nan)
    assert str(exc.value) == "emotion.delta_upper must be finite, got nan"


def test_check_bounds_renders_an_open_interval():
    @dataclass(frozen=True)
    class Probe:
        x: float = bound(0.5, 0, 1, strict=True)

        def __post_init__(self) -> None:
            check_bounds(self, "probe")

    Probe(math.nextafter(1.0, 0.0))
    for bad in (0.0, 1.0):
        with pytest.raises(ConfigError) as exc:
            Probe(bad)
        assert str(exc.value) == f"probe.x must be in (0, 1), got {bad}"


def test_canonical_rendering_is_pinned():
    # benchmark configs and manifest replays are written through this rendering
    text = render_config(default_values())
    assert len(text.splitlines()) == 50
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "4c93d93c2a0b9c1a7474e355858c337b4537bd0dcf9683632fbcb98481a0b1bb"
    )


def test_effective_values_are_canonical_fixpoint():
    text = (
        "world.stimulus_probability = .25\n"
        "agent.visit_peak = -5e-1\n"
        "world.n_agents = 007\n"
        "kernel.jitter = 1E-8\n"
        "ga.eval_seeds = 11 , 12\n"
        "world.stimulus_modalities = recipe , music\n"
    )
    b1 = parse_config_text(text)
    assert b1.effective["world.stimulus_probability"] == "0.25"
    assert b1.effective["agent.visit_peak"] == "-0.5"
    # one input of each type: integer, number, integer list, string list
    assert b1.effective["world.n_agents"] == "7"
    assert b1.effective["kernel.jitter"] == "1e-08"
    assert b1.effective["ga.eval_seeds"] == "11,12"
    assert b1.effective["world.stimulus_modalities"] == "recipe,music"
    # re-rendering the effective values and parsing again changes nothing
    b2 = parse_config_text(render_config(b1.effective))
    assert b2.effective == b1.effective
    assert b2.world == b1.world
    assert b2.ga == b1.ga


def test_graph_file_resolution(tmp_path):
    edges = tmp_path / "tiny-graph.txt"
    edges.write_text("sun moon\nmoon star\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.content_graph = tiny-graph.txt\n", encoding="utf-8")
    bundle = parse_config(str(cfg))
    assert bundle.world.content_edges == "sun moon\nmoon star\n"
    # canonical echo uses the absolute path so the manifest reproduces the run
    assert bundle.effective["world.content_graph"] == str(edges)
    assert bundle.effective["world.style_graph"] == "builtin"


def test_graph_file_missing_names_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.style_graph = nowhere.txt\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        parse_config(str(cfg))
    assert "world.style_graph" in str(exc.value)


def test_non_utf8_config_file_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"world.resolution = 8\n# caf\xff\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(str(cfg))


def test_non_utf8_graph_file_names_key(tmp_path):
    (tmp_path / "graph.txt").write_bytes(b"sun moon\nmoon st\xffar\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("world.content_graph = graph.txt\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key world.content_graph: cannot read graph file"):
        parse_config(str(cfg))


@pytest.mark.parametrize("marked", ["run.cfg", "graph.txt"])
def test_a_byte_order_mark_is_part_of_no_key_or_node(tmp_path, marked):
    texts = {
        "run.cfg": "world.content_graph = graph.txt\nworld.total_ticks = 9\n",
        "graph.txt": "animal plant\nplant stone\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = str(tmp_path / "run.cfg")
    plain = parse_config(cfg)
    (tmp_path / marked).write_text(texts[marked], encoding="utf-8-sig")
    assert (tmp_path / marked).read_bytes().startswith(b"\xef\xbb\xbf")
    bundle = parse_config(cfg)
    assert (bundle.world, bundle.ga, bundle.effective) == (plain.world, plain.ga, plain.effective)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/run.cfg")


def test_readme_config_table_lists_every_key_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = [
        section + key
        for section, keys in re.findall(r"^\| `(\w+\.)` \| (.+) \|$", readme, re.MULTILINE)
        for key in re.findall(r"`(\w+)`", keys)
    ]
    assert listed == [entry.key for entry in ENTRIES]
