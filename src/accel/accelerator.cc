#include "accel/accelerator.hh"

#include "common/logging.hh"

namespace loas {

ShareKeys
Accelerator::shareKeys(const LayerSpec&) const
{
    return {};
}

std::shared_ptr<const JoinTable>
Accelerator::joinInput(const CompiledLayer&, std::size_t)
{
    panic("%s has no join phase", name().c_str());
}

RunResult
Accelerator::replayInput(const CompiledLayer&, std::size_t,
                         const JoinTable&)
{
    panic("%s has no replay phase", name().c_str());
}

RunResult
Accelerator::executeBatch(const CompiledLayer& compiled,
                          std::vector<RunResult>* per_input)
{
    const std::size_t batch = compiled.batch == 0 ? 1 : compiled.batch;
    std::vector<RunResult>& slots =
        per_input != nullptr ? *per_input : batch_slots_;
    slots.resize(batch);

    RunResult total;
    total.accel = name();
    total.workload = compiled.spec.name;
    for (std::size_t input = 0; input < batch; ++input) {
        slots[input] = executeInput(compiled, input, 0);
        total += slots[input];
    }
    return total;
}

RunResult
Accelerator::runLayer(const LayerData& layer)
{
    return execute(prepare(layer));
}

RunResult
Accelerator::runNetwork(const std::vector<LayerData>& layers,
                        const std::string& workload_name)
{
    RunResult total;
    total.accel = name();
    total.workload = workload_name;
    for (const auto& layer : layers)
        total += runLayer(layer);
    return total;
}

} // namespace loas
