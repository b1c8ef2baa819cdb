"""The state protocol: ``FockState`` and ``TensorState`` answer the same
methods, and the rest of the package reaches the representation only
through them."""

import ast
import inspect
from pathlib import Path

import numpy as np

import bosonlab
from bosonlab import fockstate as fs
from bosonlab import tensorstate as ts
from bosonlab.hamiltonians import apply_stage, pieces_at, stage_entries
from test_hamiltonians import block, make_model, random_phi, rows

STATE_CLASSES = {"FockState", "TensorState"}
# the state modules, and the snapshot codec, whose class-to-tag map is the
# format's tag byte
STATE_MODULES = {"fockstate.py", "tensorstate.py", "snapshots.py"}
PROTOCOL = {"inner", "lift", "generator", "pair_sums", "asymmetry", "chain_expectation"}


def names_in(node) -> set:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def is_call_of(node, names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def test_no_representation_test_outside_the_state_modules():
    found = []
    for path in sorted(Path(bosonlab.__file__).parent.glob("*.py")):
        if path.name in STATE_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if is_call_of(node, ("isinstance", "issubclass")):
                tested = names_in(node)
            elif isinstance(node, ast.Compare) and any(is_call_of(sub, ("type",)) for sub in ast.walk(node)):
                tested = names_in(node)
            else:
                continue
            if tested & STATE_CLASSES:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def methods(cls) -> set:
    return {name for name, value in vars(cls).items() if callable(value) and not name.startswith("_")}


def test_both_representations_define_the_same_methods():
    assert methods(fs.FockState) == methods(ts.TensorState)
    assert PROTOCOL <= methods(fs.FockState)
    for name in methods(fs.FockState):
        fock, tensor = (list(inspect.signature(getattr(cls, name)).parameters)
                        for cls in (fs.FockState, ts.TensorState))
        assert fock == tensor, name


class TestTensorBlocks:
    def test_with_amps_keeps_particles(self):
        psi = ts.random_symmetric(3, 2, 0.5, np.random.default_rng(1))
        members = psi.with_amps(np.stack([psi.amps] * 3))
        assert members.particles == 2 and members.sites == 3
        assert members.copy().particles == (2.0 * members + members - members).particles == 2
        assert rows(members)[1].particles == 2

    def test_lift_of_a_block_is_the_lift_of_each_row(self):
        rng = np.random.default_rng(2)
        states = [ts.random_symmetric(3, 3, 0.5, rng) for _ in range(3)]
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = block(states).lift(x)
        assert out.amps.shape == (3, 3, 3, 3)
        for got, psi in zip(rows(out), states):
            expect = psi.lift(x).amps
            assert np.abs(got.amps - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_stage_block_matches_the_occupation_route(self):
        # Htilde on every member, C and Q from other members
        model = make_model()
        rng = np.random.default_rng(3)
        pieces = pieces_at(random_phi(model, rng), 0.0, model)
        space = fs.FockSpace(fs.enumerate_basis(3, 3), model.cell)
        states = [ts.random_symmetric(3, 3, model.cell, rng) for _ in range(3)]
        entries = stage_entries([(None, None), (0, None), (2, 0)])
        tensor = apply_stage(pieces, block(states), entries)
        fock = apply_stage(pieces, block([fs.extract(psi, space) for psi in states]), entries)
        assert tensor.particles == 3
        for got, expect in zip(rows(tensor), rows(fock)):
            expect = fs.embed(expect).amps
            assert np.abs(got.amps - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())

    def test_tensor_pair_sums_apply_each_operator_to_its_named_members(self, monkeypatch):
        # an order-3 stage reads Htilde on 4 members, C on 2 and Q on 1: each
        # operator's one two-slot table runs on those rows only, once per
        # unordered coordinate pair, 7 of the 12 member-operator applications
        model = make_model()
        rng = np.random.default_rng(5)
        pieces = pieces_at(random_phi(model, rng), 0.0, model)
        states = [ts.random_symmetric(3, 3, model.cell, rng) for _ in range(4)]
        seen, contract = [], ts.apply_slots
        monkeypatch.setattr(ts, "apply_slots",
                            lambda table, slots, psi: seen.append(len(psi.amps)) or contract(table, slots, psi))
        block(states).pair_sums(pieces, stage_entries([(None, None), (0, None), (None, 0), (1, None)]))
        assert sorted(seen) == sorted([4, 2, 1] * 3)

    def test_slot_tables_on_a_block_act_on_each_row(self):
        rng = np.random.default_rng(6)
        states = [ts.random_symmetric(3, 2, 0.5, rng) for _ in range(3)]
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x2 = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        for apply, expect in ((lambda psi: ts.apply_slots(x, (1,), psi), lambda a: a @ x.T),
                              (lambda psi: ts.apply_slots(x2, (1, 0), psi),
                               lambda a: (x2 @ a.T.reshape(9)).reshape(3, 3).T)):
            out = apply(block(states))
            assert out.particles == 2 and out.amps.shape == (3, 3, 3)
            for got, psi in zip(rows(out), states):
                assert np.abs(got.amps - apply(psi).amps).max() <= 1e-14
                assert np.abs(got.amps - expect(psi.amps)).max() <= 1e-13

