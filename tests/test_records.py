"""The record semantics of pqsim's 25 frozen record classes, as
``dataclasses.dataclass(frozen=True)`` gave them: frozen fields, equality
and hashing over the compared fields (identity for ``eq=False``), the
dataclass repr text, ``replace`` through ``__init__`` and fresh default
factories."""

import dataclasses
import math

import numpy as np
import pytest

from pqsim import cli, devices, experiments, opf, qcore
from pqsim._record import replace

QUBIT = qcore.FactorSpace((2,))
PSI = qcore.PureState.basis_state(QUBIT, 0)
ENSEMBLE = qcore.Ensemble(((PSI, 1.0),))
F = opf.opf_from_quantum(np.diag([1.0, 0.0]).astype(complex), QUBIT)
CANDIDATE = opf.CPMapCandidate(2, np.eye(2))

# class -> (a factory of one instance, its repr); None marks repr=False
RECORDS = {
    qcore.FactorSpace: (lambda: qcore.FactorSpace([2, 2]), "FactorSpace(dims=(2, 2))"),
    qcore.Ensemble: (lambda: qcore.Ensemble([(PSI, 1)]),
                     "Ensemble(members=((PureState(dims=(2,)), 1.0),))"),
    qcore.POVMSet: (lambda: qcore.POVMSet((np.eye(2),)),
                    "POVMSet(elements=(array([[1.+0.j, 0.+0.j],\n"
                    "       [0.+0.j, 1.+0.j]]),))"),
    qcore.SchmidtDecomposition: (
        lambda: qcore.SchmidtDecomposition((1.0,), (PSI,), (PSI,)),
        "SchmidtDecomposition(weights=(1.0,), left_states=(PureState(dims=(2,)),), "
        "right_states=(PureState(dims=(2,)),))"),
    qcore.StateStack: (lambda: qcore.StateStack(QUBIT, np.array([[1.0, 0.0]])), None),
    devices.RealValue: (lambda: devices.RealValue(0.5), "RealValue(value=0.5)"),
    devices.IntegerLabel: (lambda: devices.IntegerLabel(3), "IntegerLabel(value=3)"),
    devices.Bit: (lambda: devices.Bit(1), "Bit(value=1)"),
    devices.Overflow: (lambda: devices.Overflow(), "Overflow(excluded_probability=0.0)"),
    devices.DistributionTable: (
        lambda: devices.DistributionTable((devices.RealValue,), np.array([[0.5]]),
                                          np.array([[1.0]])),
        "DistributionTable(types=(<class 'pqsim.devices.RealValue'>,), "
        "values=array([[0.5]]), probabilities=array([[1.]]), precision=None)"),
    devices.DeviceKind: (
        lambda: devices.DeviceKind("A", "a kind", ("x?",), False, len),
        "DeviceKind(aliases='A', summary='a kind', params=('x?',), stochastic=False, "
        "table=<built-in function len>, may_miss=(), deterministic_without=None, "
        "single_factor=False, spectral=False)"),
    devices.DeviceSpec: (lambda: devices.DeviceSpec("Readout"),
                         "DeviceSpec(kind='Readout', params={})"),
    opf.FullMeasurement: (lambda: opf.FullMeasurement((F,)),
                          f"FullMeasurement(outcomes=({F!r},))"),
    opf.ClosureReport: (lambda: opf.ClosureReport(10, 0.0, 0.5, 0.0, None),
                        "ClosureReport(samples=10, completeness_violation=0.0, "
                        "mixture_violation=0.5, unitary_violation=0.0, "
                        "composition_violation=None)"),
    opf.ProductFormCertificate: (
        lambda: opf.ProductFormCertificate(0.0, np.eye(1), 3),
        "ProductFormCertificate(residual=0.0, operator=array([[1.]]), probe_count=3)"),
    opf.EstimationWitness: (
        lambda: opf.EstimationWitness(ENSEMBLE, ENSEMBLE, F, 0.25, 0.5, 0.0, 4),
        f"EstimationWitness(ensemble_a={ENSEMBLE!r}, ensemble_b={ENSEMBLE!r}, "
        f"distinguishing={F!r}, value_a=0.25, value_b=0.5, list_agreement=0.0, "
        "list_size=4)"),
    opf.EstimationVerdict: (
        lambda: opf.EstimationVerdict("readout", 2, "SATISFIED"),
        "EstimationVerdict(family='readout', dimension=2, verdict='SATISFIED', "
        "outcomes=(), witness=None, evidence=0.0)"),
    opf.CPMapCandidate: (lambda: opf.CPMapCandidate(1, np.eye(1)),
                         "CPMapCandidate(dimension=1, matrix=array([[1.]]))"),
    opf.UpdateMapCertificate: (
        lambda: opf.UpdateMapCertificate(2, 0.5, CANDIDATE),
        f"UpdateMapCertificate(dimension=2, residual=0.5, candidate={CANDIDATE!r})"),
    experiments.Certificate: (
        lambda: experiments.Certificate("demo", "FAIL", {"x": 1}, 7),
        "Certificate(experiment='demo', verdict='FAIL', evidence={'x': 1}, seed=7)"),
    experiments.OutcomeStat: (lambda: experiments.OutcomeStat(0.5, (0.25, 0.75), 10),
                              "OutcomeStat(frequency=0.5, interval=(0.25, 0.75), trials=10)"),
    experiments.EstimationReport: (
        lambda: experiments.EstimationReport("tomography", (), "m", 0.25, 0.95, 0.5,
                                             True, 7),
        "EstimationReport(protocol='tomography', outcome_stats=(), metric_name='m', "
        "metric_value=0.25, confidence=0.95, threshold=0.5, passed=True, seed=7, "
        "status='OK', estimate_matrix=None, recovered=(), extras={})"),
    cli.RunConfig: (lambda: cli.RunConfig(1, (2,), "bell", "device", "Readout"),
                    "RunConfig(seed=1, dims=(2,), state_kind='bell', action_type='device', "
                    "name='Readout', state_labels=(), state_amplitudes=(), target=(), "
                    "repetitions=1, params=(), output_path='', output_format='records')"),
    cli.Param: (lambda: cli.Param(int), "Param(type=<class 'int'>, default=None, low=-inf, "
                                        "high=inf, open=False, choices=(), many=False)"),
    cli.Action: (lambda: cli.Action("a", "b", 1, {}, len),
                 "Action(cli_name='a', config_name='b', stream=1, params={}, "
                 "call=<built-in function len>, m_param=None)"),
}
CLASSES = list(RECORDS)
IDENTITY_EQ = {qcore.StateStack, devices.DistributionTable}
# compared fields that hold arrays or dicts: no hash, and equal copies do not compare
UNHASHABLE = {qcore.POVMSet, devices.DeviceSpec, opf.ProductFormCertificate,
              opf.CPMapCandidate, opf.UpdateMapCertificate, experiments.Certificate,
              experiments.EstimationReport, cli.Action}

NOT_COMPARED = {"device", "evaluator"}  # of RunConfig and FullMeasurement


def _fields(record):
    return type(record)._record_fields


def test_every_record_class_is_listed():
    found = {cls for module in (qcore, devices, opf, experiments, cli)
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and "_record_fields" in vars(cls)}
    assert found == set(CLASSES) and len(CLASSES) == 25


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    record = RECORDS[cls][0]()
    for name in _fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1
    assert "extra" not in vars(record)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_text(cls):
    make, text = RECORDS[cls]
    record = make()
    if text is None:
        assert repr(record) == object.__repr__(record)
    else:
        assert repr(record) == text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    make = RECORDS[cls][0]
    a, b = make(), make()
    assert a == a and a.__eq__(object()) in (NotImplemented, False)
    if cls in IDENTITY_EQ:
        assert a != b and hash(a) == object.__hash__(a)
    elif cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert a == b and not a != b
        compared = [n for n in _fields(a) if n not in NOT_COMPARED]
        assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in compared))


def test_equality_is_over_the_compared_fields_as_a_tuple():
    assert devices.RealValue(0.5) != devices.RealValue(0.25)
    assert devices.IntegerLabel(1) != devices.Bit(1)
    assert devices.IntegerLabel(1).__eq__(devices.Bit(1)) is NotImplemented
    nan = math.nan  # one object: the tuple comparison takes it as equal to itself
    assert devices.RealValue(nan) == devices.RealValue(nan)
    assert devices.RealValue(nan) != devices.RealValue(float("nan"))
    measurement = opf.FullMeasurement((F,))
    other = opf.FullMeasurement((F,), evaluator=lambda stack: np.ones((len(stack), 1)))
    assert measurement == other and hash(measurement) == hash(other) == hash(((F,),))
    config = cli.RunConfig(1, (2,), "bell", "device", "Readout")
    with_device = replace(config, device=devices.DeviceSpec("Readout"))
    assert with_device == config and hash(with_device) == hash(config)
    assert repr(with_device) == repr(config)
    assert replace(config, seed=2) != config


def test_init_takes_positional_and_keyword_arguments():
    a = opf.ClosureReport(10, 0.0, 0.5, 0.0, None)
    b = opf.ClosureReport(10, 0.0, composition_violation=None, mixture_violation=0.5,
                          unitary_violation=0.0)
    assert a == b
    assert devices.DistributionTable((devices.RealValue,), np.zeros((1, 1)),
                                     np.ones((1, 1)), 4).precision == 4
    with pytest.raises(TypeError, match="missing 1 required"):
        devices.RealValue()
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        devices.RealValue(1.0, 2.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'v'"):
        devices.RealValue(v=1.0)
    with pytest.raises(TypeError, match="multiple values for argument 'value'"):
        devices.RealValue(1.0, value=2.0)


def test_init_runs_post_init():
    assert qcore.FactorSpace([2, 3]).dims == (2, 3)
    with pytest.raises(ValueError, match="Bit outcome must be 0 or 1"):
        devices.Bit(2)


def test_replace_changes_fields_and_runs_post_init_again():
    stat = experiments.OutcomeStat(0.5, (0.25, 0.75), 10)
    assert replace(stat, trials=20) == experiments.OutcomeStat(0.5, (0.25, 0.75), 20)
    with pytest.raises(ValueError, match="trial count must be at least 1"):
        replace(stat, trials=0)
    assert replace(qcore.FactorSpace((2,)), dims=[3, 2]).dims == (3, 2)
    spec = replace(devices.DeviceSpec("Readout"), params={"precision": 4})
    assert spec.params == {"precision": 4}
    with pytest.raises(devices.ParameterError):
        replace(spec, kind="FunctionReadout")  # post_init: it needs an exponent
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        replace(stat, nope=1)


def test_default_factory_gives_each_instance_its_own_dict():
    make = RECORDS[experiments.EstimationReport][0]
    first, second = make(), make()
    assert first.extras == {} and first.extras is not second.extras
    assert "extras" not in vars(experiments.EstimationReport)
    specs = devices.DeviceSpec("Readout"), devices.DeviceSpec("Readout")
    assert specs[0].params is not specs[1].params
    # a plain default stays the class attribute, as a dataclass leaves it
    assert experiments.EstimationReport.status == "OK" and cli.RunConfig.device is None
