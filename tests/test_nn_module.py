"""Module system: registration, parameter collection, persistence."""

import os

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Linear, Module, Parameter, Sequential
from repro.runtime import read_checkpoint, write_checkpoint


class Child(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones(3))


class Parent(Module):
    def __init__(self):
        super().__init__()
        self.child = Child()
        self.bias = Parameter(np.zeros(2))


def test_parameter_requires_grad():
    assert Parameter(np.ones(2)).requires_grad


def test_recursive_named_parameters():
    names = dict(Parent().named_parameters())
    assert set(names) == {"bias", "child.weight"}


def test_num_parameters():
    assert Parent().num_parameters() == 5


def test_modules_iterates_tree():
    assert len(list(Parent().modules())) == 2


def test_zero_grad_clears():
    model = Parent()
    for p in model.parameters():
        p.grad = np.ones_like(p.data)
    model.zero_grad()
    assert all(p.grad is None for p in model.parameters())


def test_train_eval_propagates():
    model = Parent()
    model.eval()
    assert not model.child.training
    model.train()
    assert model.child.training


@pytest.mark.parametrize("training", [False, True])
def test_evaluating_restores_mode(training):
    model = Parent().train(training)
    with model.evaluating():
        assert not model.training and not model.child.training
    assert model.training == model.child.training == training


def test_evaluating_restores_mode_on_error():
    model = Parent()
    with pytest.raises(RuntimeError):
        with model.evaluating():
            raise RuntimeError("forward failed")
    assert model.training and model.child.training


def test_state_dict_roundtrip():
    a, b = Parent(), Parent()
    a.bias.data[:] = 7.0
    b.load_state_dict(a.state_dict())
    assert np.allclose(b.bias.data, 7.0)


def test_state_dict_returns_copies():
    model = Parent()
    state = model.state_dict()
    state["bias"][:] = 99.0
    assert model.bias.data[0] == 0.0


def test_load_state_dict_missing_key():
    with pytest.raises(KeyError):
        Parent().load_state_dict({"bias": np.zeros(2)})


def test_load_state_dict_shape_mismatch():
    state = Parent().state_dict()
    state["bias"] = np.zeros(5)
    with pytest.raises(ValueError):
        Parent().load_state_dict(state)


def test_save_load_file(tmp_path):
    path = os.path.join(tmp_path, "model.ckpt")
    a = Parent()
    a.child.weight.data[:] = 3.0
    write_checkpoint(path, a.state_dict())
    b = Parent()
    b.load_state_dict(read_checkpoint(path).payload)
    assert np.allclose(b.child.weight.data, 3.0)


def test_forward_not_implemented():
    with pytest.raises(NotImplementedError):
        Module()(1)


def test_sequential_indexing_and_len():
    seq = Sequential(Linear(2, 3), Linear(3, 4))
    assert len(seq) == 2
    assert isinstance(seq[1], Linear)
    assert seq(Tensor(np.ones((1, 2)))).shape == (1, 4)


# ----------------------------------------------------------------------
# Buffers (persistent non-trainable state)
# ----------------------------------------------------------------------
class Stateful(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones(3))
        self.register_buffer("counter", np.zeros(3))


class StatefulParent(Module):
    def __init__(self):
        super().__init__()
        self.child = Stateful()
        self.register_buffer("offset", np.full(2, 5.0))


class TestBuffers:
    def test_named_buffers_recursive(self):
        names = dict(StatefulParent().named_buffers())
        assert set(names) == {"offset", "child.counter"}

    def test_buffers_not_parameters(self):
        model = StatefulParent()
        assert {name for name, _ in model.named_parameters()} == {"child.weight"}
        assert len(model.buffers()) == 2

    def test_reassignment_keeps_registry_in_sync(self):
        model = Stateful()
        model.counter = model.counter + 7.0  # exponential-average style update
        assert np.allclose(dict(model.named_buffers())["counter"], 7.0)
        assert np.allclose(model.state_dict()["counter"], 7.0)

    def test_state_dict_includes_buffers_and_roundtrips(self):
        a, b = StatefulParent(), StatefulParent()
        a.child.counter = np.array([1.0, 2.0, 3.0])
        a.offset = np.array([8.0, 9.0])
        b.load_state_dict(a.state_dict())
        assert np.array_equal(b.child.counter, [1.0, 2.0, 3.0])
        assert np.array_equal(b.offset, [8.0, 9.0])

    def test_state_dict_returns_buffer_copies(self):
        model = StatefulParent()
        state = model.state_dict()
        state["offset"][:] = -1.0
        assert model.offset[0] == 5.0

    def test_missing_buffer_key_rejected(self):
        state = StatefulParent().state_dict()
        del state["child.counter"]
        with pytest.raises(KeyError):
            StatefulParent().load_state_dict(state)

    def test_buffer_shape_mismatch_rejected(self):
        state = StatefulParent().state_dict()
        state["offset"] = np.zeros(9)
        with pytest.raises(ValueError):
            StatefulParent().load_state_dict(state)

    def test_buffers_survive_checkpoint_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "model.ckpt")
        a = StatefulParent()
        a.child.counter = np.array([4.0, 5.0, 6.0])
        write_checkpoint(path, a.state_dict())
        b = StatefulParent()
        b.load_state_dict(read_checkpoint(path).payload)
        assert np.array_equal(b.child.counter, [4.0, 5.0, 6.0])
