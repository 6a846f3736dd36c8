package loopir

// The random-program differentials live in package loopir_test, which may
// import the generator (looptest) that imports this package; these are the
// internals they run on.
var (
	AgainstInterpret       = againstInterpret
	Capped                 = capped
	CheckAffineAgainstEval = checkAffineAgainstEval
	KernelTestParams       = kernelTestParams
	SameBits               = sameBits
)

const StripW = stripW
