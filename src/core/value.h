// Type-erased values.
//
// Mozart schedules *black-box* functions, so every argument and return value
// that flows through the dataflow graph is carried as an `mz::Value`: a
// shared, immutable-by-default holder tagged with the stored C++ type.
//
// Storage conventions (paper §4; docs/ARCHITECTURE.md, single-client pipeline):
//  * raw pointers (`double*`, `const Image*`, ...) are stored as the pointer
//    itself — Mozart never owns user memory reached through a pointer;
//  * object types (DataFrame, Matrix, std::vector, ...) are stored by value
//    inside the holder — split/merge functions hand Mozart *owning* pieces
//    and the holder keeps them alive until the last Value reference drops.
//
// When a function parameter is `const T*` / `T*` and the Value holds an owned
// `T`, the call layer takes the address of the held object (UnpackArg in
// client.h), which is how owned split pieces flow into pointer-taking APIs.
#ifndef MOZART_CORE_VALUE_H_
#define MOZART_CORE_VALUE_H_

#include <cstdint>
#include <memory>
#include <typeindex>
#include <typeinfo>
#include <utility>

#include "common/check.h"

namespace mz {

class Value {
 public:
  Value() = default;

  // Creates a value holding `v` (moved/copied into the holder).
  template <typename T>
  static Value Make(T v) {
    static_assert(std::is_same_v<T, std::decay_t<T>>,
                  "store decayed types only; see storage conventions");
    Value out;
    out.holder_ = std::make_shared<Holder<T>>(std::move(v));
    return out;
  }

  bool has_value() const { return holder_ != nullptr; }

  template <typename T>
  bool Is() const {
    return holder_ != nullptr && holder_->type == std::type_index(typeid(T));
  }

  template <typename T>
  const T& As() const {
    MZ_CHECK_MSG(Is<T>(), "Value type mismatch: held "
                              << (holder_ ? holder_->type.name() : "<empty>") << ", requested "
                              << typeid(T).name());
    return static_cast<const Holder<T>*>(holder_.get())->value;
  }

  // Mutable access to the held object. Used to take the address of owned
  // split pieces; the piece is uniquely owned by the executor while a batch
  // runs, so mutation is safe.
  template <typename T>
  T* MutableAs() {
    MZ_CHECK_MSG(Is<T>(), "Value type mismatch (mutable): requested " << typeid(T).name());
    return &static_cast<Holder<T>*>(holder_.get())->value;
  }

  std::type_index type() const {
    MZ_CHECK(holder_ != nullptr);
    return holder_->type;
  }

  const char* type_name() const { return holder_ ? holder_->type.name() : "<empty>"; }

  // Identity of the *holder*; two Values copied from each other share it.
  const void* holder_identity() const { return holder_.get(); }

 private:
  struct HolderBase {
    explicit HolderBase(std::type_index t) : type(t) {}
    virtual ~HolderBase() = default;
    std::type_index type;
  };

  template <typename T>
  struct Holder final : HolderBase {
    explicit Holder(T v) : HolderBase(std::type_index(typeid(T))), value(std::move(v)) {}
    T value;
  };

  std::shared_ptr<HolderBase> holder_;
};

}  // namespace mz

#endif  // MOZART_CORE_VALUE_H_
