package ordu

import (
	"context"

	"ordu/internal/core"
)

// ORUPrivateCache is ORU computed with a query-private geometry cache: the
// reference that tests compare the dataset's shared cache against.
func (ds *Dataset) ORUPrivateCache(w []float64, k, m int) (*ORUResult, error) {
	v, err := ds.prepW(w)
	if err != nil {
		return nil, err
	}
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	res, err := core.ORUWithCtx(context.Background(), ds.tree(), v, k, m, core.ORUOptions{})
	if err != nil {
		return nil, err
	}
	return newORUResult(res, v), nil
}
