"""Tests for the timeline renderer."""

import random

from repro.sim.timeline import render_predictions, render_timeline, timeline_lines
from repro.core.projection import project
from repro.core.time_automaton import time_of_boundmap
from repro.sim.scheduler import Simulator
from repro.sim.strategies import UniformStrategy

from tests.timed.test_conditions import pulse_timed


def make_run(steps=8):
    automaton = time_of_boundmap(pulse_timed())
    run = Simulator(automaton, UniformStrategy(random.Random(0))).run(max_steps=steps)
    return automaton, run


class TestTimeline:
    def test_line_count(self):
        automaton, run = make_run()
        lines = timeline_lines(run, automaton)
        assert len(lines) == len(run) + 1  # START + one per event

    def test_start_line(self):
        automaton, run = make_run()
        assert timeline_lines(run, automaton)[0].startswith("t=0  START")

    def test_predictions_inlined(self):
        automaton, run = make_run()
        text = render_timeline(run, automaton)
        assert "FIRE∈[" in text

    def test_limit_elides(self):
        automaton, run = make_run(steps=10)
        lines = timeline_lines(run, automaton, limit=3)
        assert len(lines) == 5  # START + 3 + ellipsis
        assert "more events" in lines[-1]

    def test_projected_run_renders_without_automaton(self):
        _automaton, run = make_run()
        text = render_timeline(project(run))
        assert "START" in text and "fire" in text

    def test_render_predictions_defaults_elided(self):
        automaton, run = make_run()
        state = run.first_state
        text = render_predictions(automaton, state)
        # ARM is disabled initially: default prediction, not shown.
        assert "ARM" not in text
        assert "FIRE" in text

    def test_render_predictions_subset(self):
        automaton, run = make_run()
        text = render_predictions(automaton, run.first_state, only=["ARM"])
        assert text == "(all default)"
