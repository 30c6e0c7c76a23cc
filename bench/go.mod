// The benchmark is a module of its own so that the repository's build,
// tests and tooling neither include nor depend on it; the replace directive
// points it at the checkout it sits in, whose internal packages it may
// import because its path lies under repro/.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
