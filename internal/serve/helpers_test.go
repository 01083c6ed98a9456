package serve

import "context"

// outcome is what a submitted request resolved to.
type outcome struct {
	resp Response
	err  error
}

// submitted is a test's handle on one admitted SubmitTo request: the
// Completion that parks the outcome until the test waits for it.
type submitted chan outcome

func (c submitted) Complete(resp Response, err error) { c <- outcome{resp, err} }

// submit admits a request without waiting (tests freeze the clock between
// admission and completion); a synchronous rejection returns the error.
func submit(b Backend, req Request) (submitted, error) {
	c := make(submitted, 1)
	if err := b.SubmitTo(req, c); err != nil {
		return nil, err
	}
	return c, nil
}

// wait blocks until the request resolves or ctx ends. Giving up is the
// test's business only: the request still completes on the node.
func (c submitted) wait(ctx context.Context) (Response, error) {
	select {
	case out := <-c:
		return out.resp, out.err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// submitWait admits a request and waits for its outcome.
func submitWait(ctx context.Context, b Backend, req Request) (Response, error) {
	c, err := submit(b, req)
	if err != nil {
		return Response{}, err
	}
	return c.wait(ctx)
}
