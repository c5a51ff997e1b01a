// The benchmark is a module of its own so that it builds from its own
// directory; the module path sits under repro/ so that it may import
// repro/internal/..., and the replace directive resolves repro to the
// checkout the benchmark sits in.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
