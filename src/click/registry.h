// Element class registry: maps Click class names (aliases included) to
// factories. It is the one table of classes a tenant may name: each element
// it creates is both the runtime element and its own symbolic model, so the
// controller rejects exactly the classes the runtime cannot build.
#ifndef SRC_CLICK_REGISTRY_H_
#define SRC_CLICK_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/click/element.h"

namespace innet::click {

using ElementFactory = std::function<std::unique_ptr<Element>()>;

class Registry {
 public:
  // The process-wide registry with all built-in elements pre-registered.
  static Registry& Global();

  bool Contains(const std::string& class_name) const;

  // Creates and configures an instance; returns nullptr and fills *error on
  // unknown class or configuration failure.
  std::unique_ptr<Element> Create(const std::string& class_name, const std::string& args,
                                  std::string* error) const;

  std::vector<std::string> KnownClasses() const;

 private:
  Registry();
  void Register(const std::string& class_name, ElementFactory factory);

  std::vector<std::pair<std::string, ElementFactory>> factories_;
};

}  // namespace innet::click

#endif  // SRC_CLICK_REGISTRY_H_
