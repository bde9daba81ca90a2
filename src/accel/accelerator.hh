/**
 * @file
 * Common interface of all accelerator simulators (LoAS and the
 * SparTen/GoSPA/Gamma/PTB/Stellar baselines).
 *
 * Simulation is a two-phase pipeline. prepare() lowers a layer's
 * operands into the design's compressed formats (fibers, per-timestep
 * views, cumulative address-offset tables) — expensive, and a function
 * of the layer alone. execute() streams the compiled layer through the
 * modeled datapath — a function of the layer *and* the hardware
 * configuration. Because prepare() output never depends on hardware
 * options, design variants of one format family (`loas?pes=16` vs
 * `loas?pes=64`) share compiled artifacts; the SimEngine memoizes them
 * in a CompiledCache across sweep cells.
 *
 * A design may further split execute into a join phase and a replay
 * phase (see shareKeys()): the join phase computes everything that
 * depends only on the operands and the datapath's per-pair timing,
 * the replay phase walks one design's wave schedule and memory system
 * over it. Designs with equal join keys replay one JoinTable, and
 * designs with equal execute keys return equal RunResults, so a sweep
 * over PE counts or cache sizes joins each (layer, input) once.
 *
 * runLayer() remains as the one-shot convenience (prepare + execute)
 * for harnesses and tests that simulate a layer once.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/compiled_layer.hh"
#include "accel/run_result.hh"
#include "workload/generator.hh"

namespace loas {

/**
 * The product of one design's join phase over one input of one
 * compiled layer. Immutable once built, so every design with the same
 * join key replays one table, from any thread.
 */
struct JoinTable
{
    virtual ~JoinTable() = default;
};

/** Which designs can share work on one layer; "" shares nothing. */
struct ShareKeys
{
    /** Designs with equal join keys replay one JoinTable. */
    std::string join;

    /** Designs with equal execute keys return equal RunResults. */
    std::string execute;
};

/** An accelerator model that can run dual-sparse SNN layers. */
class Accelerator
{
  public:
    virtual ~Accelerator() = default;

    /** Short display name ("LoAS", "SparTen-SNN", ...). */
    virtual std::string name() const = 0;

    /**
     * Format-family key of this design's compiled artifacts. Two
     * accelerator instances with the same family produce identical
     * prepare() output for the same layer, whatever their hardware
     * options — the contract that lets the CompiledCache share
     * artifacts across design variants.
     */
    virtual std::string formatFamily() const = 0;

    /**
     * Phase 1: lower one layer into this design's compiled operand
     * formats. Depends only on the layer (never on hardware options).
     */
    virtual CompiledLayer prepare(const LayerData& layer) const = 0;

    /**
     * Phase 2: simulate the datapath over a compiled layer — input 0
     * of its batch. Sugar for
     * executeInput(compiled, 0, 0); every backend implements the one
     * entry point.
     */
    RunResult execute(const CompiledLayer& compiled)
    {
        return executeInput(compiled, 0, 0);
    }

    /**
     * Phase 2 over one input of a batched compiled layer. `worker` is
     * ignored: an instance keeps one scratch and is driven by one
     * thread at a time (the SimEngine gives each participant of a
     * run its own instances). The layer must come from this design's format
     * family (fatal otherwise).
     */
    virtual RunResult executeInput(const CompiledLayer& compiled,
                                   std::size_t input,
                                   std::size_t worker) = 0;

    /**
     * Reject a layer this design cannot run (std::invalid_argument),
     * before anything is synthesized. The default accepts every
     * layer.
     */
    virtual void checkLayer(const LayerSpec& /*layer*/) const {}

    /**
     * Sharing keys of this design on a layer with spec `layer`. Keys
     * of different designs are compared only for the same layer and
     * format family. The default shares nothing.
     */
    virtual ShareKeys shareKeys(const LayerSpec& layer) const;

    /**
     * Join phase over one input: a table that replayInput() of any
     * design with the same join key turns into that design's
     * executeInput() result. Only designs with a join key implement
     * it (panics otherwise).
     */
    virtual std::shared_ptr<const JoinTable>
    joinInput(const CompiledLayer& compiled, std::size_t input);

    /** Replay phase over one input's join table (see joinInput()). */
    virtual RunResult replayInput(const CompiledLayer& compiled,
                                  std::size_t input,
                                  const JoinTable& table);

    /**
     * Phase 2 over EVERY input of a batched compiled layer, serially,
     * reduced into one aggregate in input order. With `per_input` the
     * per-input results are copied out (resized to the batch).
     */
    RunResult executeBatch(const CompiledLayer& compiled,
                           std::vector<RunResult>* per_input = nullptr);

    /** One-shot convenience: prepare + execute. */
    RunResult runLayer(const LayerData& layer);

    /** Simulate a whole network; layer results are summed. */
    RunResult runNetwork(const std::vector<LayerData>& layers,
                         const std::string& workload_name);

  private:
    /** Reused per-input result slots of executeBatch (steady-state
     *  batched execution stays allocation-free once warm). */
    std::vector<RunResult> batch_slots_;
};

} // namespace loas
