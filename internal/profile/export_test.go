package profile

// CollectReference exposes the reference collector to the external test
// package, which can import synth and fidelity without an import cycle.
var CollectReference = collectReference
