package core

// WatchWindow calls fn with the length of the oracle window's dense region
// and its number of stranded records whenever either grows, in every core,
// until stop is called. Calls come from the goroutine running the core.
func WatchWindow(fn func(dense, stranded int)) (stop func()) {
	debugWindow = func(w *oracleWindow) { fn(len(w.dense), len(w.stranded)-w.sh) }
	return func() { debugWindow = nil }
}
