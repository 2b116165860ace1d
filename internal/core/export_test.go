package core

// NewLoop re-exports newLoop, the one place that installs the reference
// order, for the package core_test suites.
var NewLoop = newLoop
