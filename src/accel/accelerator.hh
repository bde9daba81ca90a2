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
     * of its batch on worker slot 0. Sugar for
     * executeInput(compiled, 0, 0); every backend implements the one
     * entry point.
     */
    RunResult execute(const CompiledLayer& compiled)
    {
        return executeInput(compiled, 0, 0);
    }

    /**
     * Phase 2 over one input of a batched compiled layer. `worker`
     * selects the scratch pool slot and nothing else — two concurrent
     * calls are safe iff their worker indices differ and
     * reserveWorkers() pre-sized the pool. The layer must come from
     * this design's format family (fatal otherwise).
     */
    virtual RunResult executeInput(const CompiledLayer& compiled,
                                   std::size_t input,
                                   std::size_t worker) = 0;

    /**
     * Pre-size per-worker execute scratch so a batch-level parallel
     * section never grows the pool concurrently. Called serially by
     * executeBatch(); default no-op for designs without pools.
     */
    virtual void reserveWorkers(std::size_t workers) { (void)workers; }

    /**
     * Phase 2 over EVERY input of a batched compiled layer: a
     * batch-level parallel loop over per-input fibers with per-worker
     * scratch, reduced into one aggregate in input order (bit-identical
     * at any thread count; each input's result lands in a fixed slot).
     * With `per_input` the per-input results are copied out (resized to
     * the batch). threads <= 1 runs serially on worker slot 0.
     */
    RunResult executeBatch(const CompiledLayer& compiled, int threads,
                           std::vector<RunResult>* per_input = nullptr);

    /** One-shot convenience: prepare + execute. */
    RunResult runLayer(const LayerData& layer);

    /** Simulate a whole network; layer results are summed. */
    RunResult runNetwork(const std::vector<LayerData>& layers,
                         const std::string& workload_name);

    /** Simulate a network from pre-compiled (possibly shared) layers. */
    RunResult
    runNetwork(const std::vector<std::shared_ptr<const CompiledLayer>>&
                   layers,
               const std::string& workload_name);

    /**
     * Simulate a network over every input of its batch. Layer results
     * are summed per input; `per_input` (optional) receives the B
     * per-input network totals and the returned aggregate sums them in
     * input order.
     */
    RunResult runNetworkBatch(
        const std::vector<std::shared_ptr<const CompiledLayer>>& layers,
        const std::string& workload_name, int threads,
        std::vector<RunResult>* per_input = nullptr);

  private:
    /** Reused per-input result slots of executeBatch (steady-state
     *  batched execution stays allocation-free once warm). */
    std::vector<RunResult> batch_slots_;
};

} // namespace loas
