package costmodel

import "yosompc/internal/postlen"

// SimSizes is postlen.SimSizes, under the name this package's tests call
// the model's widths by.
func SimSizes(bits int) postlen.Sizes { return postlen.SimSizes(bits) }
