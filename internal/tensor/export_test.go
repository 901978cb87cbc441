package tensor

// HandOffs reports how many chunks ParallelFor has handed to the pool
// since the process started.
func HandOffs() int64 { return handOffs.Load() }
