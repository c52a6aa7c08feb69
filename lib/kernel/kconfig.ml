type mode = Native_oblivious | Explicit_allocation

type t = {
  mode : mode;
  activation_pooling : bool;
  daemons : bool;
  rotate_remainder : bool;
  preempt_warning : Sa_engine.Time.span option;
  seed : int;
}

let default =
  {
    mode = Explicit_allocation;
    activation_pooling = true;
    daemons = true;
    rotate_remainder = true;
    preempt_warning = None;
    seed = 42;
  }

let native = { default with mode = Native_oblivious }
